"""Coloring oracles: built-in kinds, descriptors, derived colorings, witnesses."""

import copy
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab.deltasys import order_iso, relabel
from sumsetlab.oracle import (
    ColoringOracle,
    ConstantOracle,
    FloorSumOracle,
    FourCountOracle,
    LookupTableOracle,
    OrderInvariantOracle,
    SeededHashOracle,
    SupportSizeOracle,
    UnmappedVector,
    UnsoundCertificate,
    WitnessCertificate,
    WitnessFailure,
    certified_witness,
    derived,
    fnv1a64,
    level_pattern_table,
    make_oracle,
    verify_witness,
)
from sumsetlab.pattern import make_string, star
from sumsetlab.qvec import QVec

indices = st.integers(min_value=0, max_value=63)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(
    lambda q: q != 0
)
qvecs = st.dictionaries(indices, rationals, max_size=6).map(QVec)


def test_support_size_counts_entries_mod_r():
    o = SupportSizeOracle(2)
    assert o.color(QVec({0: 2, 3: 2, 9: 4})) == 1
    assert o.color(QVec({0: 2, 3: 2})) == 0


def test_four_count_on_all_twos_is_zero():
    o = FourCountOracle(2)
    assert o.color(star((2, 2, 2, 2), (0, 1, 2, 3))) == 0
    assert o.color(star((2, 2, 4), (0, 1, 2))) == 1


def test_floor_sum_floors_non_integral_totals():
    o = FloorSumOracle(2)
    assert o.color(QVec({0: "1/2"})) == 0
    assert o.color(QVec({0: "3/2"})) == 1
    assert o.color(QVec({0: "3/2", 1: "1/2"})) == 0


halves_and_thirds = st.builds(
    Fraction, st.integers(-30, 30).filter(lambda n: n != 0), st.sampled_from((1, 1, 2, 3))
)


@given(st.dictionaries(indices, halves_and_thirds, max_size=6).map(QVec))
def test_floor_sum_matches_exact_floor(v):
    # Covers the all-integer fast path and the Fraction path alike.
    total = sum((value for _, value in v.items()), start=Fraction(0))
    for r in (1, 2, 3, 5):
        assert FloorSumOracle(r).color(v) == math.floor(total) % r


def test_every_oracle_is_deterministic():
    for descriptor in ("support-size", "four-count", "floor-sum", "seeded-hash:9"):
        o = make_oracle(descriptor, 3)
        v = QVec({1: 2, 4: "1/2"})
        assert o.color(v) == o.color(v)


@given(qvecs)
def test_colors_are_in_range_and_serialization_stable(v):
    for descriptor in ("support-size", "four-count", "floor-sum", "seeded-hash:5"):
        o = make_oracle(descriptor, 3)
        c = o.color(v)
        assert 0 <= c < 3
        assert o.color(QVec.parse(v.serialize())) == c


def _fnv_reference(text: str) -> int:
    """Independent FNV-1a 64 implementation used to pin the hash contract."""
    value = 14695981039346656037
    for ch in text.encode("utf-8"):
        value = ((value ^ ch) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return value


def test_fnv1a64_matches_reference_and_frozen_anchor():
    anchor = "0:2/1,3:2/1,9:4/1"
    assert fnv1a64(anchor.encode("utf-8")) == _fnv_reference(anchor) == 9675822182110254359
    assert fnv1a64(b"") == 14695981039346656037


def test_fnv1a64_standard_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@given(qvecs, st.integers(min_value=0, max_value=2**32))
def test_seeded_hash_is_hash_xor_seed_mod_r(v, seed):
    o = SeededHashOracle(3, seed)
    assert o.color(v) == (_fnv_reference(v.serialize()) ^ seed) % 3


def test_seeded_hash_frozen_colors():
    v = QVec.parse("0:2/1,3:2/1,9:4/1")
    assert SeededHashOracle(2, 0).color(v) == 1
    assert SeededHashOracle(2, 1).color(v) == 0
    assert SeededHashOracle(3, 0).color(v) == 2


def test_seeds_change_some_color():
    vs = [QVec({i: 2}) for i in range(16)]
    a, b = SeededHashOracle(2, 0), SeededHashOracle(2, 1)
    assert any(a.color(v) != b.color(v) for v in vs)


def test_derived_four_count_levels_for_two_colors():
    o = FourCountOracle(2)
    assert derived(o, 0, (3, 8)) == 0
    assert derived(o, 1, (0, 5, 9)) == 1
    assert derived(o, 2, (0, 1, 2, 3)) == 0


def test_derived_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        derived(FourCountOracle(2), 1, (0, 1))


def test_derived_agrees_with_direct_star_recomputation():
    for descriptor in ("four-count", "support-size"):
        for r in range(1, 5):
            o = make_oracle(descriptor, r)
            for l in range(r + 1):
                for tup in combinations(range(10), r + l):
                    expected = o.color(star(make_string(r, l), tup))
                    assert derived(o, l, tup) == expected


def _state(oracle):
    return {
        key: _state(value) if isinstance(value, ColoringOracle) else copy.deepcopy(value)
        for key, value in vars(oracle).items()
    }


def test_oracles_are_stateless():
    vectors = [QVec({i: 2, j: 4}) for i, j in combinations(range(80), 2)]
    for descriptor in ("seeded-hash:3", "order-invariant-wrapper:seeded-hash:3"):
        o = make_oracle(descriptor, 3)
        before = _state(o)
        colors = [o.color(v) for v in vectors]
        assert _state(o) == before
        assert [o.color(v) for v in vectors] == colors


def test_lookup_table_is_strict_about_unmapped_vectors():
    table = {QVec({0: 2}).serialize(): 1}
    o = LookupTableOracle(2, table)
    assert o.color(QVec({0: 2})) == 1
    with pytest.raises(UnmappedVector):
        o.color(QVec({0: 4}))


def test_lookup_table_rejects_out_of_range_colors():
    with pytest.raises(ValueError):
        LookupTableOracle(2, {"0:2/1": 5})


def test_table_file_round_trip(tmp_path):
    table = {QVec({0: 2}).serialize(): 1, QVec({1: 4, 2: 4}).serialize(): 0}
    path = tmp_path / "table.tsv"
    path.write_text("".join(f"{key}\t{table[key]}\n" for key in sorted(table)))
    o = make_oracle(f"external-table-file:{path}", 2)
    assert o.color(QVec({0: 2})) == 1
    assert o.color(QVec({1: 4, 2: 4})) == 0
    assert o.descriptor() == f"external-table-file:{path}"


def test_table_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0:2/1 without a tab\n")
    with pytest.raises(ValueError):
        make_oracle(f"external-table-file:{path}", 2)


@given(
    qvecs,
    st.sets(st.integers(min_value=0, max_value=200), min_size=0, max_size=10),
)
def test_order_invariant_wrapper_ignores_relabeling(v, fresh):
    o = OrderInvariantOracle(SeededHashOracle(3, 7))
    source = v.support
    if len(fresh) < len(source):
        return
    target = tuple(sorted(fresh))[: len(source)]
    h = order_iso(source, target)
    assert o.color(relabel(v, h)) == o.color(v)


def test_wrapper_preserves_color_count_and_descriptor():
    o = make_oracle("order-invariant-wrapper:seeded-hash:4", 2)
    assert o.r == 2
    assert o.descriptor() == "order-invariant-wrapper:seeded-hash:4"


def test_make_oracle_descriptor_grammar():
    assert make_oracle("constant", 2).color(QVec({0: 1})) == 0
    assert make_oracle("constant:1", 2).color(QVec({0: 1})) == 1
    assert isinstance(make_oracle("support-size", 2), SupportSizeOracle)
    with pytest.raises(ValueError):
        make_oracle("seeded-hash", 2)
    with pytest.raises(ValueError):
        make_oracle("lookup-table", 2)
    with pytest.raises(ValueError):
        make_oracle("order-invariant-wrapper", 2)
    with pytest.raises(ValueError):
        make_oracle("no-such-kind", 2)


def test_constant_oracle_validates_value():
    with pytest.raises(ValueError):
        ConstantOracle(2, 2)


def test_out_of_range_color_is_an_internal_error():
    class Broken(ColoringOracle):
        def __init__(self):
            super().__init__(2, "broken")

        def _color_impl(self, v):
            return 7

    with pytest.raises(RuntimeError):
        Broken().color(QVec({0: 1}))


def test_color_requires_a_qvec():
    with pytest.raises(TypeError):
        SupportSizeOracle(2).color("0:2/1")


def test_verify_witness_constant_oracle_succeeds():
    cert = verify_witness(ConstantOracle(2, 1), [QVec({0: 2}), QVec({1: 2})])
    assert isinstance(cert, WitnessCertificate)
    assert cert.color == 1
    assert len(cert.table) == 3


def test_verify_witness_four_count_miniature():
    x0 = QVec({0: 2, 1: 2})
    x1 = QVec({2: 2, 3: 2})
    cert = verify_witness(FourCountOracle(2), [x0, x1])
    assert isinstance(cert, WitnessCertificate)
    assert cert.color == 0
    sums = {v.serialize() for v, _ in cert.table}
    assert sums == {"0:4/1,1:4/1", "0:2/1,1:2/1,2:2/1,3:2/1", "2:4/1,3:4/1"}


def test_verify_witness_reports_the_offending_pair():
    result = verify_witness(SupportSizeOracle(2), [QVec({0: 2}), QVec({1: 2})])
    assert isinstance(result, WitnessFailure)
    assert {result.first[1], result.second[1]} == {0, 1}
    assert "has color" in result.describe()


def test_verify_witness_rejects_empty_set():
    with pytest.raises(ValueError):
        verify_witness(ConstantOracle(2), [])


def test_certified_witness_holds_the_sums_to_the_claimed_color():
    xs = [QVec({0: 2}), QVec({1: 2})]
    assert certified_witness(ConstantOracle(2, 1), xs, 1) == verify_witness(
        ConstantOracle(2, 1), xs
    )
    # support-size colors the doubles 0 and the cross sum 1.
    with pytest.raises(UnsoundCertificate, match="has color"):
        certified_witness(SupportSizeOracle(2), xs, 1)
    with pytest.raises(UnsoundCertificate, match="sum color 1 is not the claimed 0"):
        certified_witness(ConstantOracle(2, 1), xs, 0)


def test_certificate_payload_is_serializable_rows():
    cert = verify_witness(ConstantOracle(2), [QVec({0: 2})])
    assert cert.sums_payload() == [{"vector": "0:4/1", "color": 0}]


def test_level_pattern_table_realizes_a_profile():
    r, profile = 3, (0, 1, 2, 0)
    table = level_pattern_table(r, profile)
    for l, color in enumerate(profile):
        s = make_string(r, l)
        whole = star(s, range(len(s)))
        assert table[whole.serialize()] == color
        assert table[whole.scale("1/2").serialize()] == color
    with pytest.raises(ValueError):
        level_pattern_table(3, (0, 1))
