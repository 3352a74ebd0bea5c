"""Tests for the general r-coloring witness pipeline.

The deterministic oracles from conftest drive each stage down a known path:
PositionCutOracle forces a genuine shrink followed by a genuine level
homogenization, PrimedTopOracle breaks replacement_search on purpose, and
profile oracles pin the level constants exactly.  Expected member lists and
level colors below were derived by hand from the block layout and then
confirmed against an independent enumeration before being frozen.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from functools import partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ORDER_INVARIANT_DESCRIPTORS,
    PositionCutOracle,
    PrimedTopOracle,
    outcome_of,
    profile_oracle,
    undeclared,
)
from sumsetlab import pipeline_r, ramsey
from sumsetlab.oracle import (
    ColoringOracle,
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


def test_iter_containing_top_of_names_a_family():
    # An index past the families used to pass unnoticed and enumerate
    # every tuple, as if no top were required.
    fams = layout_families(2, 2).families
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"family index {j} out of range"):
            list(iter_canonical_tuples(fams, 1, containing_top_of=j))


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
    sys0 = system_from_universe(2, 12)
    report = check_levels(oracle, sys0)
    assert report.all_constant
    assert report.colors == (0, 1, 0)
    # four-count declares order_invariant, so each level colors one tuple.
    assert [lvl.tuple_count for lvl in report.levels] == [1, 1, 1]


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
    assert [lvl.constant for lvl in report.levels] == [True, False]
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
    # Plain full enumeration: color every tuple of every level, then find
    # the first tuple of level 1 that disagrees with its first tuple.
    tuples = [list(iter_canonical_tuples(sys0.families, l, index_strict=True)) for l in range(4)]
    colors = [[derived(oracle, l, t.entries) for t in level] for l, level in enumerate(tuples)]
    assert len(set(colors[0])) == 1
    k = next(k for k, c in enumerate(colors[1]) if c != colors[1][0])
    # The report ends at level 1, the first level that is not constant.
    assert [lvl.constant for lvl in report.levels] == [True, False]
    level0, level1 = report.levels
    assert (level0.color, level0.counterexample) == (colors[0][0], None)
    assert level0.tuple_count == len(tuples[0])
    assert (level1.constant, level1.color) == (False, None)
    assert level1.counterexample == (tuples[1][0], colors[1][0], tuples[1][k], colors[1][k])
    assert level1.tuple_count == k + 1 < len(tuples[1])

    def vectors(l, level):
        return [star(make_string(3, l), t.entries).serialize() for t in level]

    assert counting.seen == vectors(0, tuples[0]) + vectors(1, tuples[1][: k + 1])
    later = set(vectors(2, tuples[2])) | set(vectors(3, tuples[3]))
    assert later and not later & set(counting.seen)


def test_check_levels_rejects_r_mismatch():
    with pytest.raises(ValueError):
        check_levels(make_oracle("four-count", 3), system_from_universe(2, 12))


COUNTED_SYSTEMS = {
    "universe-2-12": system_from_universe(2, 12),
    "universe-3-24": system_from_universe(3, 24),
    "universe-4-24": system_from_universe(4, 24),
    "gaps": select_positions(system_from_universe(3, 36), (0, 2, 5, 7, 8)),
    # Level 2 needs two member positions, so it is empty and ends the report.
    "one-member": select_positions(system_from_universe(3, 36), (4,)),
}


@pytest.mark.parametrize("descriptor", ORDER_INVARIANT_DESCRIPTORS)
@pytest.mark.parametrize("name", COUNTED_SYSTEMS)
def test_check_levels_counts_what_full_enumeration_colors(descriptor, name):
    sys0 = COUNTED_SYSTEMS[name]
    oracle = make_oracle(descriptor, sys0.r)
    colored = []
    color = oracle.color
    oracle.color = lambda v: colored.append(v) or color(v)
    report = check_levels(oracle, sys0)
    walked = check_levels(undeclared(make_oracle(descriptor, sys0.r)), sys0)

    def verdicts(levels):
        return [(lvl.level, lvl.constant, lvl.color, lvl.counterexample) for lvl in levels]

    assert verdicts(report.levels) == verdicts(walked.levels)
    # Only the first tuple of each level is colored, and counted.
    assert len(colored) == len(report.levels) - (not report.all_constant)
    if name == "one-member":
        assert [lvl.constant for lvl in report.levels] == [True, True, False]
        assert [lvl.tuple_count for lvl in report.levels] == [1, 1, 0]
    else:
        assert report.all_constant
        assert [lvl.tuple_count for lvl in report.levels] == [1] * (sys0.r + 1)


@pytest.mark.parametrize("members, top, bad", [
    ((-1, 1), 2, -1),
    ((False, 1), 2, False),
    ((0.0, 1), 2, 0.0),
    # The first tuple of every level avoids these, so only a walk meets them.
    ((0, 1, 2), 3.0, 3.0),
    ((0, 1, 2, 2.5), 3, 2.5),
])
def test_check_levels_on_coordinates_that_are_not_naturals(members, top, bad):
    # Such a system takes the enumerating path, and star refuses the index.
    other = IndexFamily(tuple(range(10, 10 + len(members))), 20)
    sys0 = FamilySystem(families=(IndexFamily(members, top), other))
    message = re.escape(f"index must be a natural number, got {bad!r}")
    for oracle in (make_oracle("four-count", 2), undeclared(make_oracle("four-count", 2))):
        with pytest.raises(ValueError, match=message):
            check_levels(oracle, sys0)


@pytest.mark.parametrize("stage", [
    lambda oracle, sys: verify_saturation(oracle, sys),
    lambda oracle, sys: replacement_search(oracle, sys, 0, [[]] * sys.r, -1),
    lambda oracle, sys: last_step(oracle, sys, 1),
])
@pytest.mark.parametrize("sys0, message", [
    (
        FamilySystem(families=(IndexFamily((-1, 1), 2), IndexFamily((10, 11), 20))),
        "index must be a natural number, got -1",
    ),
    # The oracle's r is not the system's, so a level-0 tuple has one entry
    # more than the oracle's level-0 pattern.
    (layout_families(3, 2), "length mismatch: 2 values vs 3 indices"),
])
def test_stages_off_the_naturals_meet_star(stage, sys0, message):
    for oracle in (make_oracle("four-count", 2), make_oracle("seeded-hash:3", 2)):
        with pytest.raises(ValueError, match=re.escape(message)):
            stage(oracle, sys0)


class Recording(ColoringOracle):
    """Colors as the inner oracle does and keeps each (vector, color)."""

    def __init__(self, inner: ColoringOracle):
        super().__init__(inner.r, inner.kind)
        self.inner = inner
        self.colored: list[tuple[QVec, int]] = []

    def _color_impl(self, v):
        c = self.inner.color(v)
        self.colored.append((v, c))
        return c


@st.composite
def natural_systems(draw):
    """A laid-out system inside range(30) with r <= 3 families and gaps
    anywhere, under seeded-hash or a position-dependent oracle."""
    r = draw(st.integers(1, 3), label="r")
    m = draw(st.integers(1, 30 // r - 1), label="m")
    coords = sorted(draw(st.permutations(range(30)))[: r * (m + 1)])
    sys0 = FamilySystem(
        families=tuple(
            IndexFamily(tuple(coords[k * (m + 1) : k * (m + 1) + m]), coords[k * (m + 1) + m])
            for k in range(r)
        )
    )
    if draw(st.booleans(), label="position-cut"):
        oracle = PositionCutOracle(r, sys0, cut=draw(st.integers(0, m), label="cut"))
    else:
        oracle = make_oracle(f"seeded-hash:{draw(st.integers(0, 2**32 - 1), label='seed')}", r)
    return oracle, sys0


def stage_outcomes(oracle, sys0):
    """check_levels, shrink (its searches, traded tuples included, and its
    saturation check) and last_step on the shrunk or the given system."""
    levels = outcome_of(lambda: check_levels(oracle, sys0))
    shrunk = outcome_of(lambda: shrink(oracle, sys0, max(1, sys0.member_count // sys0.r)))
    homogeneous = isinstance(shrunk, FamilySystem) and verify_saturation(oracle, shrunk) is None
    ready = outcome_of(lambda: last_step(oracle, shrunk if homogeneous else sys0, 1))
    return levels, shrunk, ready


@settings(max_examples=60, deadline=None)
@given(natural_systems())
def test_level_colorers_color_every_tuple_as_derived_does(case):
    inner, sys0 = case
    assert sys0.natural
    oracle = Recording(inner)
    outcomes = stage_outcomes(oracle, sys0)
    assert oracle.colored
    for v, c in oracle.colored:
        l = v.values_in_order().count(2) // 2
        assert v == star(make_string(sys0.r, l), v.support)
        assert c == derived(inner, l, v.support)
    # Through derived, the stages color the same vectors in the same order.
    through_derived = Recording(inner)
    everywhere_derived = lambda oracle, sys: [partial(derived, oracle, l) for l in range(sys.r + 1)]
    with mock.patch.object(pipeline_r, "level_colorers", everywhere_derived):
        assert stage_outcomes(through_derived, sys0) == outcomes
    assert through_derived.colored == oracle.colored


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


# Before pools were checked, replacement_search returned 0, 0 (reading -1
# as the last member) and 3 on the first three and raised IndexError on
# the last two.
MALFORMED_POOLS = (
    ([[], [], [], []], "4 pools for 3 families: there is no family 3"),
    ([[-1], [], []], "the pool of family 0 is [-1], not ascending distinct member positions"),
    ([[2, 1], [], []], "the pool of family 0 is [2, 1], not ascending"),
    ([[], []], "2 pools for 3 families: family 2 has no pool"),
    ([[7], [], []], "the pool of family 0 is [7], not ascending"),
)


@pytest.mark.parametrize(
    "pools, message",
    MALFORMED_POOLS,
    ids=["extra-pool", "negative", "descending", "missing-pool", "past-the-members"],
)
def test_malformed_pools_are_refused_naming_the_family(pools, message):
    sys0 = layout_families(3, 6)
    oracle = make_oracle("constant:1", 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        replacement_search(oracle, sys0, 0, pools, -1)
    for l in range(4):
        with pytest.raises(ValueError, match=re.escape(message)):
            list(iter_canonical_tuples(sys0.families, l, pools=pools))


def reference_replacement_search(oracle, sys, j, pools, lower, colors=None):
    """replacement_search as it was before the trade rewrote one slot and
    kept the accepted colors: every entry equal to the top is replaced,
    and every candidate tuple is colored afresh.  colors, when given, only
    memoises the tuples with the top in place."""
    if not 0 <= j < sys.r:
        raise ValueError(f"family index {j} out of range")
    if colors is None:
        colors = {}
    floor = max([lower, *pools[j]])
    constraints = [
        (t.l, t.entries)
        for l in range(sys.r + 1)
        for t in iter_canonical_tuples(sys.families, l, pools=pools, containing_top_of=j)
    ]
    family = sys.families[j]
    candidates = range(floor + 1, sys.member_count)
    if candidates:
        for l, entries in constraints:
            if entries not in colors:
                colors[entries] = derived(oracle, l, entries)
    for candidate in candidates:
        member = family.members[candidate]
        if all(
            colors[entries]
            == derived(oracle, l, tuple(member if e == family.top else e for e in entries))
            for l, entries in constraints
        ):
            return candidate
    return PipelineFailure(
        stage="shrink",
        reason=f"no position above {floor} in family {j} preserves all "
        f"{len(constraints)} tuple colors ({len(candidates)} tried)",
        exhaustive=True,
        family=j,
    )


def shrink_outcome(oracle, sys0, target):
    """shrink's picks as member lists, or its failure."""
    outcome = shrink(oracle, sys0, target)
    if isinstance(outcome, PipelineFailure):
        return outcome
    return [f.members for f in outcome.families]


@st.composite
def shrink_cases(draw):
    r = draw(st.integers(1, 4), label="r")
    sys0 = system_from_universe(r, draw(st.integers(3 * r, 8 * r), label="n"))
    m = sys0.member_count
    # The two structural oracles give color 1, so they need r >= 2.
    kinds = ["seeded-hash", "position-cut", "primed-top"] if r > 1 else ["seeded-hash"]
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "seeded-hash":
        oracle = make_oracle(f"seeded-hash:{draw(st.integers(0, 2**32 - 1), label='seed')}", r)
    elif kind == "position-cut":
        oracle = PositionCutOracle(r, sys0, cut=draw(st.integers(0, m), label="cut"))
    else:
        oracle = PrimedTopOracle(r, sys0)
    return oracle, sys0, draw(st.integers(1, m), label="target")


@settings(max_examples=150, deadline=None)
@given(shrink_cases())
def test_shrink_agrees_with_a_loop_over_the_reference_search(case):
    # The same pools, or the same failure: stage, round, family and reason.
    oracle, sys0, target = case
    expected = shrink_outcome(oracle, sys0, target)
    with mock.patch.object(pipeline_r, "replacement_search", reference_replacement_search):
        assert shrink_outcome(oracle, sys0, target) == expected


def test_shrink_rejection_matches_the_reference_on_the_pinned_failure():
    # construct-r --oracle seeded-hash:1 --r 3 --n 45 --m 3 shrinks to 4
    # members.  Family 0 rejects positions 0 and 1 and takes 2, family 1
    # rejects 3 and takes 4, and family 2 rejects all 8 positions above 4.
    oracle = make_oracle("seeded-hash:1", 3)
    sys0 = system_from_universe(3, 45)
    outcome = shrink(oracle, sys0, 4)
    assert outcome == PipelineFailure(
        stage="shrink",
        reason="no position above 4 in family 2 preserves all 7 tuple colors (8 tried)",
        exhaustive=True,
        round=0,
        family=2,
    )
    with mock.patch.object(pipeline_r, "replacement_search", reference_replacement_search):
        assert shrink(oracle, sys0, 4) == outcome


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
    traded: list[QVec] = []

    class Recording(PositionCutOracle):
        def _color_impl(self, v):
            if searching:
                (top_in_place if searching[-1] in v.support else traded).append(v)
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
    # PositionCutOracle accepts the first candidate of every search, so
    # every candidate tuple is a traded tuple of an accepted pick.  Its
    # color is kept, and no later search colors it again, with a top in
    # place or as a candidate.
    assert len(traded) > 100
    assert max(Counter(top_in_place + traded).values()) == 1


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


class PositionSumOracle(PositionCutOracle):
    """Colors level l by l plus the positions of its unprimed entries, mod r,
    so every level from 1 on must extract its own position set.  calls
    counts the vectors it colors."""

    def __init__(self, r, sys0):
        super().__init__(r, sys0, cut=0)
        self.calls = 0

    def _color_impl(self, v):
        self.calls += 1
        values = v.values_in_order()
        l = sum(1 for value in values if value == 2) // 2
        support = v.support
        return (l + sum(self._pos[support[2 * k]] for k in range(l))) % self.r


def test_last_step_extracts_a_position_set_at_every_level():
    sys0 = layout_families(3, 9)
    oracle = PositionSumOracle(3, sys0)
    stepped = last_step(oracle, sys0, 3)
    assert stepped.rho == (0, 1, 2, 0)
    assert [f.members for f in stepped.families] == [(1, 4, 7), (12, 15, 18), (23, 26, 29)]
    assert [f.top for f in stepped.families] == [10, 21, 32]
    assert oracle.calls == 41


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
    xs = witness_vectors(sys0, 0, 1, 3)
    a, b = make_witness_tuples(sys0, 0, 1, 3)
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


def test_construct_r_position_cut_payload_and_coloring_count_are_pinned():
    # The digest pins every byte of the certificate payload; the count pins
    # the oracle work of the whole run, shrink and last_step included.
    sys0 = system_from_universe(3, 45)
    oracle = CountingPositionCutOracle(3, sys0, cut=9)
    cert = construct_r(oracle, 3, 45, 3)
    assert isinstance(cert, PipelineRCertificate)
    text = json.dumps(cert.to_payload(), sort_keys=True)
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "7651db7b3e0a69f4cfbf20fe987abff5c3977a80102f6a9859eb08f6eb4df308"
    )
    assert len(oracle.seen) == 3213


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
