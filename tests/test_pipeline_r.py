"""Tests for the general r-coloring witness pipeline.

The deterministic oracles from conftest drive each stage down a known path:
PositionCutOracle forces a genuine shrink followed by a genuine level
homogenization, PrimedTopOracle breaks replacement_search on purpose, and
profile oracles pin the level constants exactly.  Expected member lists and
level colors below were derived by hand from the block layout and then
confirmed against an independent enumeration before being frozen.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from conftest import PositionCutOracle, PrimedTopOracle, profile_oracle
from sumsetlab import pipeline_r, ramsey
from sumsetlab.oracle import (
    PipelineFailure,
    WitnessCertificate,
    derived,
    make_oracle,
    verify_witness,
)
from sumsetlab.pattern import (
    TOP,
    IndexFamily,
    canonical_tuple,
    is_index_strictly_increasing,
    is_l_canonical,
    is_top,
    make_string,
    star,
)
from sumsetlab.pipeline2 import Pipeline2Certificate, construct2
from sumsetlab.pipeline_r import (
    FamilySystem,
    PipelineRCertificate,
    check_levels,
    construct_r,
    iter_canonical_tuples,
    last_step,
    layout_families,
    make_witness_tuples,
    pigeonhole_pair,
    replacement_search,
    saturated,
    select_positions,
    shrink,
    system_from_universe,
    verify_saturation,
    witness_vectors,
)
from sumsetlab.qvec import QVec


# ---------------------------------------------------------------------------
# layout


def test_layout_families_geometry():
    sys0 = layout_families(2, 3)
    assert sys0.r == 2
    assert sys0.member_count == 3
    assert sys0.families[0].members == (1, 2, 3)
    assert sys0.families[0].top == 4
    assert sys0.families[1].members == (6, 7, 8)
    assert sys0.families[1].top == 9


def test_layout_families_explicit_block():
    sys0 = layout_families(2, 3, block=10)
    assert sys0.families[0].members == (1, 2, 3)
    assert sys0.families[0].top == 9
    assert sys0.families[1].members == (11, 12, 13)
    assert sys0.families[1].top == 19


def test_layout_families_rejects_bad_shapes():
    with pytest.raises(ValueError):
        layout_families(2, 0)
    with pytest.raises(ValueError):
        layout_families(2, 3, block=4)  # cannot hold 3 members plus a top


def test_system_from_universe_block_math():
    sys0 = system_from_universe(3, 45)
    assert sys0.member_count == 13
    assert [f.members for f in sys0.families] == [
        tuple(range(1, 14)),
        tuple(range(16, 29)),
        tuple(range(31, 44)),
    ]
    assert [f.top for f in sys0.families] == [14, 29, 44]
    # every index fits inside range(n)
    assert max(f.top for f in sys0.families) < 45


def test_system_from_universe_too_small():
    with pytest.raises(ValueError):
        system_from_universe(3, 8)  # block of 2 cannot hold member plus top


def test_family_system_validation():
    with pytest.raises(ValueError):
        FamilySystem(families=())
    a = IndexFamily(members=(1, 2), top=5)
    overlapping = IndexFamily(members=(3, 4), top=6)  # 3 < 5 = previous top
    with pytest.raises(ValueError):
        FamilySystem(families=(a, overlapping))
    uneven = IndexFamily(members=(7, 8, 9), top=10)
    with pytest.raises(ValueError):
        FamilySystem(families=(a, uneven))


def test_select_positions_keeps_prefix_and_rho():
    sys0 = system_from_universe(2, 12)
    trimmed = select_positions(sys0, range(2), rho=(0, 1, 0))
    assert [f.members for f in trimmed.families] == [(1, 2), (7, 8)]
    assert [f.top for f in trimmed.families] == [5, 11]
    assert trimmed.rho == (0, 1, 0)


def test_select_positions_applies_same_slice_everywhere():
    sys0 = system_from_universe(2, 12)
    picked = select_positions(sys0, [3, 0], rho=(1, 1, 1))
    assert [f.members for f in picked.families] == [(1, 4), (7, 10)]
    assert picked.rho == (1, 1, 1)


def test_payload_families_shape():
    sys0 = layout_families(2, 2)
    assert sys0.payload_families() == [
        {"members": [1, 2], "top": 3},
        {"members": [5, 6], "top": 7},
    ]


# ---------------------------------------------------------------------------
# canonical tuple enumeration


def test_iter_counts_hand_checked():
    fams = layout_families(2, 2).families
    assert len(list(iter_canonical_tuples(fams, 0))) == 9
    assert len(list(iter_canonical_tuples(fams, 1))) == 8
    assert len(list(iter_canonical_tuples(fams, 0, index_strict=True))) == 4
    assert len(list(iter_canonical_tuples(fams, 1, index_strict=True))) == 4
    fams1 = layout_families(1, 2).families
    assert len(list(iter_canonical_tuples(fams1, 0))) == 3
    assert len(list(iter_canonical_tuples(fams1, 1))) == 3


def test_iter_matches_independent_filter():
    """The iterator must agree with 'try everything, keep what validates',
    in ascending (index, primed) order, on default and explicit pools, with
    and without a required top, and with and without index_strict."""

    def brute(families, l, pools, containing_top_of, index_strict):
        pool = [list(p) + [TOP] for p in pools]
        out = []
        for index in product(*pool):
            if index_strict and not is_index_strictly_increasing(index):
                continue
            for primed in product(*pool[:l]):
                try:
                    t = canonical_tuple(families, l, index, primed)
                except ValueError:
                    continue
                if not is_l_canonical(t, families, l)[0]:
                    continue
                if containing_top_of is None or families[containing_top_of].top in t.entries:
                    out.append(t)
        return sorted(out, key=lambda t: (t.index, t.primed))

    for strict in (False, True):
        for r, m in [(1, 3), (2, 3), (3, 2), (4, 3)]:
            fams = layout_families(r, m).families
            default = [range(m)] * r
            for l in range(r + 1):
                expected = brute(fams, l, default, None, strict)
                assert list(iter_canonical_tuples(fams, l, index_strict=strict)) == expected
        fams = layout_families(3, 4).families
        for pools in ([[0, 2], [1, 3], [2]], [[], [0], [1, 2, 3]], [[1], [], []]):
            for l in range(4):
                for top_of in (None, 0, 1, 2):
                    expected = brute(fams, l, pools, top_of, strict)
                    got = iter_canonical_tuples(
                        fams, l, pools=pools, index_strict=strict, containing_top_of=top_of
                    )
                    assert list(got) == expected, (pools, l, top_of, strict)


def test_iter_yields_only_canonical_tuples():
    fams = layout_families(3, 3).families
    for l in range(4):
        for t in iter_canonical_tuples(fams, l, index_strict=True):
            ok, reason = is_l_canonical(t, fams, l)
            assert ok, reason
            assert is_index_strictly_increasing(t)


def test_iter_respects_pools():
    fams = layout_families(2, 4).families
    pools = [[0, 2], [1]]
    for t in iter_canonical_tuples(fams, 1, pools=pools):
        for k, position in enumerate(t.index):
            assert position in pools[k] or is_top(position)
        assert t.primed[0] in pools[0] or is_top(t.primed[0])


def test_iter_containing_top_filter():
    fams = layout_families(2, 3).families
    tops = [f.top for f in fams]
    for t in iter_canonical_tuples(fams, 1, containing_top_of=0):
        assert tops[0] in t.entries
    for t in iter_canonical_tuples(fams, 1, containing_top_of=1):
        assert tops[1] in t.entries


def test_iter_order_is_deterministic():
    fams = layout_families(2, 2).families
    tuples = list(iter_canonical_tuples(fams, 1))
    assert tuples == list(iter_canonical_tuples(fams, 1))
    assert (tuples[0].index, tuples[0].primed) == ((0, 0), (1,))
    assert (tuples[-1].index, tuples[-1].primed) == ((1, TOP), (TOP,))


def test_iter_level_out_of_range():
    fams = layout_families(2, 2).families
    with pytest.raises(ValueError):
        list(iter_canonical_tuples(fams, 3))


# ---------------------------------------------------------------------------
# level colors and homogeneity


def test_level_color_is_star_of_pattern():
    sys0 = layout_families(2, 3)
    oracle = make_oracle("four-count", 2)
    t = canonical_tuple(sys0.families, 1, (0, TOP), (2,))
    direct = oracle.color(star(make_string(2, 1), t.entries))
    assert derived(oracle, t.l, t.entries) == direct


def test_check_levels_four_count():
    oracle = make_oracle("four-count", 2)
    report = check_levels(oracle, system_from_universe(2, 12))
    assert report.all_constant
    assert report.colors == (0, 1, 0)
    assert all(lvl.tuple_count > 0 for lvl in report.levels)


def test_check_levels_profile_oracle():
    profile = (2, 0, 1, 2)
    oracle = profile_oracle(3, profile)
    report = check_levels(oracle, system_from_universe(3, 24))
    assert report.all_constant
    assert report.colors == profile


def test_check_levels_counterexample_recolors():
    sys0 = system_from_universe(3, 45)
    oracle = PositionCutOracle(3, sys0, cut=9)
    report = check_levels(oracle, sys0)
    assert [lvl.constant for lvl in report.levels] == [True, False, False, False]
    lvl = report.levels[1]
    t_a, c_a, t_b, c_b = lvl.counterexample
    assert c_a != c_b
    assert derived(oracle, t_a.l, t_a.entries) == c_a
    assert derived(oracle, t_b.l, t_b.entries) == c_b
    with pytest.raises(ValueError):
        report.colors


class CountingPositionCutOracle(PositionCutOracle):
    """PositionCutOracle that records every vector it is asked to color."""

    def __init__(self, r, sys0, cut):
        super().__init__(r, sys0, cut)
        self.seen = []

    def _color_impl(self, v):
        self.seen.append(v.serialize())
        return super()._color_impl(v)


def test_check_levels_stops_each_level_at_its_counterexample():
    sys0 = system_from_universe(3, 45)
    oracle = PositionCutOracle(3, sys0, cut=9)
    counting = CountingPositionCutOracle(3, sys0, cut=9)
    report = check_levels(counting, sys0)
    expected_seen = []
    for l, lvl in enumerate(report.levels):
        # Plain full enumeration: color every tuple, then find the first
        # one that disagrees with the first tuple.
        tuples = list(iter_canonical_tuples(sys0.families, l, index_strict=True))
        colors = [derived(oracle, l, t.entries) for t in tuples]
        k = next((k for k, c in enumerate(colors) if c != colors[0]), None)
        if k is None:
            assert (lvl.constant, lvl.color, lvl.counterexample) == (True, colors[0], None)
            assert lvl.tuple_count == len(tuples)
        else:
            assert (lvl.constant, lvl.color) == (False, None)
            assert lvl.counterexample == (tuples[0], colors[0], tuples[k], colors[k])
            assert lvl.tuple_count == k + 1 < len(tuples)
        expected_seen += [
            star(make_string(3, l), t.entries).serialize() for t in tuples[: lvl.tuple_count]
        ]
    assert [lvl.constant for lvl in report.levels] == [True, False, False, False]
    assert counting.seen == expected_seen


def test_check_levels_rejects_r_mismatch():
    with pytest.raises(ValueError):
        check_levels(make_oracle("four-count", 3), system_from_universe(2, 12))


def test_saturated_replaces_all_but_paired_unprimed():
    sys0 = layout_families(2, 3)
    sat = saturated(sys0, 1, (0,))
    assert sat.index == (0, TOP)
    assert sat.primed == (TOP,)
    assert sat.l == 1
    assert sat.entries == (1, 4, 9)
    assert saturated(sys0, 0, ()).entries == (4, 9)
    assert saturated(sys0, 2, (0, 1)).entries == (1, 4, 7, 9)


def test_verify_saturation_clean_for_index_only_oracle():
    sys0 = system_from_universe(3, 45)
    oracle = PositionCutOracle(3, sys0, cut=9)
    assert verify_saturation(oracle, sys0) is None


def test_verify_saturation_reports_first_violation():
    sys0 = layout_families(2, 3)
    oracle = PrimedTopOracle(2, sys0)
    violation = verify_saturation(oracle, sys0)
    assert violation is not None
    level, t, c_t, sat, c_sat = violation
    assert level == 1
    assert (t.index, t.primed) == ((0, 1), (2,))
    assert (c_t, c_sat) == (0, 1)
    assert sat == saturated(sys0, 1, t.index[:1])
    assert derived(oracle, t.l, t.entries) == c_t
    assert derived(oracle, sat.l, sat.entries) == c_sat


# ---------------------------------------------------------------------------
# replacement search and shrink


def test_replacement_constant_oracle_takes_least_candidate():
    sys0 = layout_families(2, 6)
    oracle = make_oracle("constant:1", 2)
    assert replacement_search(oracle, sys0, 0, [[], []], -1) == 0
    assert replacement_search(oracle, sys0, 0, [[], []], 2) == 3


def test_replacement_order_invariant_accepts_first_above_floor():
    # Trading a family's top for a fresh position above everything chosen
    # so far never changes the relative order of the support, so an
    # order-invariant oracle accepts the least available candidate.
    sys0 = layout_families(2, 6)
    oracle = make_oracle("order-invariant-wrapper:seeded-hash:7", 2)
    assert replacement_search(oracle, sys0, 0, [[0], []], 2) == 3
    assert replacement_search(oracle, sys0, 1, [[0], [1]], 1) == 2


def test_replacement_failure_reports_candidates_tried():
    sys0 = layout_families(2, 4)
    oracle = PrimedTopOracle(2, sys0)
    outcome = replacement_search(oracle, sys0, 0, [[0], []], 0)
    assert isinstance(outcome, PipelineFailure)
    assert "(3 tried)" in outcome.reason
    assert "family 0" in outcome.reason
    assert (outcome.stage, outcome.family, outcome.exhaustive) == ("shrink", 0, True)


def test_replacement_validates_inputs():
    sys0 = layout_families(2, 4)
    oracle = make_oracle("constant:0", 2)
    with pytest.raises(ValueError):
        replacement_search(oracle, sys0, 2, [[], []], -1)


def test_shrink_interleaves_round_robin_picks():
    sys0 = system_from_universe(3, 45)
    oracle = PositionCutOracle(3, sys0, cut=9)
    shrunk = shrink(oracle, sys0, 4)
    # Picks ascend globally, so the position sequences interleave:
    # family 0 gets 0,3,6,9, family 1 gets 1,4,7,10, family 2 gets 2,5,8,11.
    assert [f.members for f in shrunk.families] == [
        (1, 4, 7, 10),
        (17, 20, 23, 26),
        (33, 36, 39, 42),
    ]
    assert [f.top for f in shrunk.families] == [14, 29, 44]
    assert verify_saturation(oracle, shrunk) is None


def test_shrink_colors_each_top_in_place_tuple_once(monkeypatch):
    # A search for family j colors the tuples with j's top in place, whose
    # vectors hold that top, and candidate tuples, whose vectors do not.
    # Pools only grow, so top-in-place tuples recur from one search to the
    # next; shrink must color each of them once.
    searching: list[int] = []
    top_in_place: list[QVec] = []

    class Recording(PositionCutOracle):
        def _color_impl(self, v):
            if searching and searching[-1] in v.support:
                top_in_place.append(v)
            return super()._color_impl(v)

    search = pipeline_r.replacement_search

    def spy(oracle, sys, j, *args):
        searching.append(sys.families[j].top)
        try:
            return search(oracle, sys, j, *args)
        finally:
            searching.pop()

    monkeypatch.setattr(pipeline_r, "replacement_search", spy)
    sys0 = system_from_universe(3, 45)
    shrunk = shrink(Recording(3, sys0, cut=9), sys0, 4)
    assert [f.members for f in shrunk.families] == [
        (1, 4, 7, 10),
        (17, 20, 23, 26),
        (33, 36, 39, 42),
    ]
    counts = Counter(top_in_place)
    assert len(counts) > 100
    assert max(counts.values()) == 1


def test_shrink_target_validation():
    sys0 = system_from_universe(2, 12)
    oracle = make_oracle("constant:0", 2)
    with pytest.raises(ValueError):
        shrink(oracle, sys0, 0)
    with pytest.raises(ValueError):
        shrink(oracle, sys0, 5)


def test_shrink_failure_identifies_round_and_family():
    # Once family 0 owns one member, every constraint tuple pairs it with
    # the family's top as primed entry; no replacement can preserve that.
    sys0 = system_from_universe(3, 45)
    oracle = PrimedTopOracle(3, sys0)
    outcome = shrink(oracle, sys0, 4)
    assert isinstance(outcome, PipelineFailure)
    assert outcome.stage == "shrink"
    assert outcome.round == 1
    assert outcome.family == 0


# ---------------------------------------------------------------------------
# last step homogenization


def test_last_step_extracts_monochromatic_positions():
    sys0 = layout_families(3, 4)
    oracle = PositionCutOracle(3, sys0, cut=3)
    stepped = last_step(oracle, sys0, 3)
    assert isinstance(stepped, FamilySystem)
    # Level 1 colors positions (0,0,0,1); the lex-least monochromatic
    # triple is positions {0,1,2}, and later levels stay constant 0.
    assert [f.members for f in stepped.families] == [(1, 2, 3), (7, 8, 9), (13, 14, 15)]
    assert stepped.rho == (0, 0, 0, 0)
    report = check_levels(oracle, stepped)
    assert report.all_constant and report.colors == stepped.rho


def test_last_step_failure_when_no_level_set_survives():
    sys0 = layout_families(3, 4)
    oracle = PositionCutOracle(3, sys0, cut=2)
    outcome = last_step(oracle, sys0, 3)
    assert isinstance(outcome, PipelineFailure)
    assert outcome.stage == "last_step"
    assert outcome.level == 1


def test_last_step_failure_says_whether_its_scan_was_complete(monkeypatch):
    sys0 = layout_families(3, 4)
    outcome = last_step(PositionCutOracle(3, sys0, cut=2), sys0, 3)
    assert isinstance(outcome, PipelineFailure)
    assert (outcome.stage, outcome.level, outcome.exhaustive) == ("last_step", 1, True)
    # With ramsey's implicit cap forced to zero subsets, even the cut-3
    # case that succeeds above stops at level 1, and must not claim a
    # complete scan.
    monkeypatch.setattr(ramsey, "FULL_SCAN_ARITY", -1)
    monkeypatch.setattr(ramsey, "TRUNCATED_BUDGET", 0)
    outcome = last_step(PositionCutOracle(3, sys0, cut=3), sys0, 3)
    assert isinstance(outcome, PipelineFailure)
    assert (outcome.stage, outcome.level, outcome.exhaustive) == ("last_step", 1, False)


def test_last_step_size_validation():
    sys0 = layout_families(2, 4)
    oracle = make_oracle("constant:0", 2)
    with pytest.raises(ValueError):
        last_step(oracle, sys0, 0)
    with pytest.raises(ValueError):
        last_step(oracle, sys0, 5)


# ---------------------------------------------------------------------------
# witness frames


def test_witness_tuples_pair_level_shape():
    sys0 = select_positions(system_from_universe(2, 12), range(4))
    a, b = make_witness_tuples(sys0, 0, 1, 4)
    assert [t.index for t in a] == [(0, TOP), (1, TOP), (2, TOP), (3, TOP)]
    assert sorted(b) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert a[0].entries == (1, 11)
    assert b[(0, 1)].entries == (1, 2, 11)


def test_witness_tuples_stride_walk():
    sys0 = select_positions(system_from_universe(3, 24), range(6))
    a, b = make_witness_tuples(sys0, 1, 2, 5)
    assert [t.index for t in a] == [(0, 1 + i, TOP) for i in range(5)]
    assert all(t.primed == (TOP,) for t in a)
    assert (b[(0, 2)].index, b[(0, 2)].primed) == ((0, 1, TOP), (TOP, 3))
    for (i, j), frame in b.items():
        assert i < j
        ok, reason = is_l_canonical(frame, sys0.families, 2)
        assert ok, reason
        assert is_index_strictly_increasing(frame)


def test_witness_tuples_count_zero_and_bounds():
    sys0 = select_positions(system_from_universe(3, 24), range(6))
    a, b = make_witness_tuples(sys0, 1, 2, 0)
    assert a == [] and b == {}
    # stride 1 from level 1 to 2 allows (6 - 2) // 1 + 1 = 5 frames
    make_witness_tuples(sys0, 1, 2, 5)
    with pytest.raises(ValueError):
        make_witness_tuples(sys0, 1, 2, 6)
    with pytest.raises(ValueError):
        make_witness_tuples(sys0, 1, 2, -1)


def test_witness_tuples_level_validation():
    sys0 = select_positions(system_from_universe(2, 12), range(4))
    with pytest.raises(ValueError):
        make_witness_tuples(sys0, 1, 1, 1)
    with pytest.raises(ValueError):
        make_witness_tuples(sys0, 0, 3, 1)
    tiny = select_positions(sys0, range(1))
    with pytest.raises(ValueError):
        make_witness_tuples(tiny, 0, 2, 1)


def test_witness_vectors_sum_identities():
    sys0 = select_positions(system_from_universe(2, 12), range(4))
    xs, a, b = witness_vectors(sys0, 0, 1, 3)
    s0, s1 = make_string(2, 0), make_string(2, 1)
    for i, x in enumerate(xs):
        assert x + x == star(s0, a[i].entries)
        for j in range(i + 1, len(xs)):
            assert x + xs[j] == star(s1, b[(i, j)].entries)
    # halved level-0 pattern: both placed values are 2 = 4/2
    assert xs[0] == QVec({1: 2, 11: 2})


def test_pigeonhole_pair_examples():
    assert pigeonhole_pair((0, 1, 0)) == (0, 2)
    assert pigeonhole_pair((1, 1, 0)) == (0, 1)
    assert pigeonhole_pair((2, 2, 2, 2, 2)) == (0, 1)
    with pytest.raises(ValueError):
        pigeonhole_pair((0, 1))


def test_pigeonhole_pair_exhaustive_small_r():
    for r in range(1, 6):
        for rho in product(range(r), repeat=r + 1):
            l_prime, l = pigeonhole_pair(rho)
            assert 0 <= l_prime < l <= r
            assert rho[l_prime] == rho[l]
            first = next(
                (a, b)
                for a in range(r + 1)
                for b in range(a + 1, r + 1)
                if rho[a] == rho[b]
            )
            assert (l_prime, l) == first


# ---------------------------------------------------------------------------
# full pipeline


def test_construct_r_position_cut_runs_both_reductions():
    sys0 = system_from_universe(3, 45)
    oracle = PositionCutOracle(3, sys0, cut=9)
    cert = construct_r(oracle, 3, 45, 3)
    assert isinstance(cert, PipelineRCertificate)
    assert [f.members for f in cert.families.families] == [
        (1, 4, 7),
        (17, 20, 23),
        (33, 36, 39),
    ]
    assert cert.rho_levels == (0, 0, 0, 0)
    assert (cert.l_prime, cert.l) == (0, 1)
    assert cert.color == 0
    assert [v.serialize() for v in cert.witness.vectors] == [
        "1:2/1,29:2/1,44:2/1",
        "4:2/1,29:2/1,44:2/1",
        "7:2/1,29:2/1,44:2/1",
    ]
    assert verify_saturation(oracle, cert.families) is None
    assert isinstance(verify_witness(oracle, list(cert.witness.vectors)), WitnessCertificate)


def test_construct_r_shrink_failure_propagates():
    sys0 = system_from_universe(3, 45)
    oracle = PrimedTopOracle(3, sys0)
    outcome = construct_r(oracle, 3, 45, 3)
    assert isinstance(outcome, PipelineFailure)
    assert (outcome.stage, outcome.round, outcome.family) == ("shrink", 1, 0)


def test_construct_r_four_count_matches_pair_pipeline():
    oracle = make_oracle("four-count", 2)
    cert = construct_r(oracle, 2, 12, 4)
    assert isinstance(cert, PipelineRCertificate)
    assert cert.rho_levels == (0, 1, 0)
    assert (cert.l_prime, cert.l) == (0, 2)
    assert len(cert.witness.vectors) == 2
    assert [v.serialize() for v in cert.witness.vectors] == [
        "1:2/1,8:2/1",
        "3:2/1,10:2/1",
    ]
    # The dedicated two-coloring pipeline reaches the same color through
    # its own case analysis on the same oracle.
    pair = construct2(oracle, 12, 4)
    assert isinstance(pair, Pipeline2Certificate)
    assert pair.color == cert.color == 0


def test_construct_r_profile_reaches_stated_levels():
    cert = construct_r(profile_oracle(3, (0, 1, 2, 0)), 3, 24, 6)
    assert isinstance(cert, PipelineRCertificate)
    assert cert.rho_levels == (0, 1, 2, 0)
    assert (cert.l_prime, cert.l) == (0, 3)
    assert cert.color == 0
    assert len(cert.witness.vectors) == 2  # (6 - 3) // 3 + 1

    cert2 = construct_r(profile_oracle(3, (0, 1, 1, 2)), 3, 24, 6)
    assert isinstance(cert2, PipelineRCertificate)
    assert (cert2.l_prime, cert2.l) == (1, 2)
    assert cert2.color == 1
    assert len(cert2.witness.vectors) == 5  # stride 1 through six members


def test_construct_r_constant_oracle_any_r():
    for r in (1, 2, 3, 4):
        cert = construct_r(make_oracle("constant:0", r), r, 10 * r, 4)
        assert isinstance(cert, PipelineRCertificate)
        assert cert.rho_levels == (0,) * (r + 1)
        assert (cert.l_prime, cert.l) == (0, 1)
        assert len(cert.witness.vectors) == 4
        assert cert.color == 0


def test_construct_r_explicit_count():
    oracle = make_oracle("four-count", 2)
    cert = construct_r(oracle, 2, 12, 4, count=1)
    assert isinstance(cert, PipelineRCertificate)
    assert len(cert.witness.vectors) == 1
    outcome = construct_r(oracle, 2, 12, 4, count=3)
    assert isinstance(outcome, PipelineFailure)
    assert outcome.stage == "witness"


def test_construct_r_payload_round_trips():
    oracle = profile_oracle(3, (0, 1, 2, 0))
    cert = construct_r(oracle, 3, 24, 6)
    payload = cert.to_payload()
    assert payload["kind"] == "construct-r"
    assert set(payload) == {
        "kind", "families", "rho_levels", "l_prime", "l", "rho", "X", "sums",
    }
    assert payload["rho"] == cert.color
    assert payload["rho_levels"] == [0, 1, 2, 0]
    assert payload["families"] == cert.families.payload_families()
    vectors = [QVec.parse(text) for text in payload["X"]]
    assert vectors == list(cert.witness.vectors)
    for entry in payload["sums"]:
        total = QVec.parse(entry["vector"])
        assert entry["color"] == payload["rho"]
        assert oracle.color(total) == payload["rho"]


def test_construct_r_input_validation():
    oracle = make_oracle("constant:0", 2)
    with pytest.raises(ValueError):
        construct_r(oracle, 3, 30, 4)  # oracle r mismatch
    with pytest.raises(ValueError):
        construct_r(oracle, 2, 30, 1)  # m below r leaves a level uninhabited
    outcome = construct_r(oracle, 2, 8, 3)  # blocks of 4 afford only 2 members
    assert isinstance(outcome, PipelineFailure)
    assert outcome.stage == "layout"
