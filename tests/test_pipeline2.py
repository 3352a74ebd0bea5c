"""Two-color pipeline: pigeonhole cases, witness formulas, certified runs."""

from itertools import product

import pytest

from conftest import ContainsFourOracle, profile_oracle
from sumsetlab.oracle import (
    ConstantOracle,
    FourCountOracle,
    PipelineFailure,
    SeededHashOracle,
    SupportSizeOracle,
    make_oracle,
    verify_witness,
)
from sumsetlab.qvec import sumset
from sumsetlab.pattern import make_string, star
from sumsetlab.pipeline2 import (
    Case,
    Pipeline2Certificate,
    _case_witnesses,
    case_of,
    construct2,
    derived_tuple_colorings,
)
from sumsetlab.qvec import QVec


def test_case_of_matches_first_coincidence():
    assert case_of(0, 0, 1) is Case.CASE1
    assert case_of(0, 1, 0) is Case.CASE2
    assert case_of(1, 0, 0) is Case.CASE3


def test_case_of_total_on_all_eight_triples():
    for rho in product((0, 1), repeat=3):
        case = case_of(*rho)
        if case is Case.CASE1:
            assert rho[0] == rho[1]
        elif case is Case.CASE2:
            assert rho[0] == rho[2]
        else:
            assert rho[1] == rho[2]


def test_case_of_rejects_three_distinct_colors():
    with pytest.raises(ValueError):
        case_of(0, 1, 2)


def test_derived_colorings_have_arities_two_three_four():
    fs = derived_tuple_colorings(FourCountOracle(2), 10)
    assert [f.arity for f in fs] == [2, 3, 4]
    assert fs[0].color((1, 5)) == 0
    assert fs[1].color((1, 5, 7)) == 1
    assert fs[2].color((1, 5, 7, 9)) == 0


def test_case1_witness_identities():
    members, top, m = (0, 1, 2, 3), 11, 4
    xs = _case_witnesses(Case.CASE1, members, top, m)
    assert len(xs) == m
    s0, s1 = make_string(2, 0), make_string(2, 1)
    for i in range(m):
        assert xs[i] + xs[i] == star(s0, (members[i], top))
        for j in range(i + 1, m):
            assert xs[i] + xs[j] == star(s1, (members[i], members[j], top))


def test_case2_witness_identities():
    members, top, m = (2, 3, 5, 8), 11, 4
    xs = _case_witnesses(Case.CASE2, members, top, m)
    assert len(xs) == m // 2
    s0, s2 = make_string(2, 0), make_string(2, 2)
    assert xs[0] + xs[0] == star(s0, (2, 3))
    assert xs[0] + xs[1] == star(s2, (2, 3, 5, 8))


def test_case3_witness_identities():
    members, top, m = (0, 1, 4, 6, 9), 11, 5
    xs = _case_witnesses(Case.CASE3, members, top, m)
    assert len(xs) == m - 2
    s1, s2 = make_string(2, 1), make_string(2, 2)
    for i in range(m - 2):
        assert xs[i] + xs[i] == star(s1, (0, 1, members[i + 2]))
        for j in range(i + 1, m - 2):
            assert xs[i] + xs[j] == star(s2, (0, 1, members[i + 2], members[j + 2]))


def test_four_count_run_lands_in_case2():
    cert = construct2(FourCountOracle(2), 12, 4)
    assert isinstance(cert, Pipeline2Certificate)
    assert cert.case is Case.CASE2
    assert cert.rho == (0, 1, 0)
    assert cert.color == 0
    assert len(cert.witness.vectors) == 2
    # Independent re-verification straight from the payload.
    fresh = verify_witness(FourCountOracle(2), [QVec.parse(t) for t in cert.to_payload()["X"]])
    assert fresh.color == 0


def test_contains_four_run_lands_in_case1():
    cert = construct2(ContainsFourOracle(), 12, 4)
    assert isinstance(cert, Pipeline2Certificate)
    assert cert.case is Case.CASE1
    assert cert.rho[0] == cert.rho[1] == 0
    assert len(cert.witness.vectors) == 4
    # Every sum either doubles a 4-pattern or lands a 4 on the top slot.
    for v, color in cert.witness.table:
        assert color == 0
        assert any(value == 4 for _, value in v.items())


def test_constant_oracle_always_succeeds():
    cert = construct2(ConstantOracle(2, 1), 8, 4)
    assert isinstance(cert, Pipeline2Certificate)
    assert cert.rho == (1, 1, 1)
    assert cert.case is Case.CASE1
    assert cert.color == 1


def test_support_size_run_verifies():
    cert = construct2(SupportSizeOracle(2), 12, 4)
    assert isinstance(cert, Pipeline2Certificate)
    sums = sumset(cert.witness.vectors)
    colors = {SupportSizeOracle(2).color(v) for v in sums}
    assert colors == {cert.color}


def test_case_choice_is_stable_as_m_grows():
    for oracle_factory in (FourCountOracle, lambda r: ContainsFourOracle(r)):
        cases = set()
        for m in (4, 6):
            cert = construct2(oracle_factory(2), 16, m)
            assert isinstance(cert, Pipeline2Certificate)
            cases.add(cert.case)
        assert len(cases) == 1


def test_failure_when_universe_cannot_homogenize():
    outcome = construct2(SeededHashOracle(2, 1), 5, 4)
    assert isinstance(outcome, PipelineFailure)
    assert outcome.stage == "homogenize"
    assert outcome.exhaustive


def test_input_validation():
    with pytest.raises(ValueError):
        construct2(make_oracle("constant", 3), 12, 4)
    with pytest.raises(ValueError):
        construct2(ConstantOracle(2), 12, 2)
    with pytest.raises(ValueError):
        construct2(ConstantOracle(2), 4, 4)


def test_payload_shape_and_notes():
    cert = construct2(FourCountOracle(2), 12, 4)
    payload = cert.to_payload()
    assert payload["kind"] == "construct2"
    assert payload["case"] == "CASE2"
    assert payload["A"] == list(cert.members)
    assert payload["rho"] == [0, 1, 0]
    assert len(payload["X"]) == 2
    assert all(set(row) == {"vector", "color"} for row in payload["sums"])


def test_case3_reachable_via_level_profile_oracle():
    cert = construct2(profile_oracle(2, (1, 0, 0)), 12, 4)
    assert isinstance(cert, Pipeline2Certificate)
    assert cert.case is Case.CASE3
    assert cert.rho == (1, 0, 0)
    assert cert.color == 0
    assert "notes" in cert.to_payload()
