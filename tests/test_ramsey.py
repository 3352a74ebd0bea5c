"""Homogeneous-set searches: brute scan, end-agreement greedy, multi-level."""

import gc
import inspect
import math
import random
import sys
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab.oracle import FloorSumOracle, FourCountOracle
from sumsetlab.pipeline2 import derived_tuple_colorings
from sumsetlab.ramsey import (
    FULL_SCAN_ARITY,
    FULL_SCAN_POINTS,
    TRUNCATED_BUDGET,
    HomogeneousSet,
    NoHomogeneousSet,
    TupleColoring,
    brute_homogeneous,
    greedy_end_homogeneous,
    multi_homogeneous,
    verify_homogeneous,
)


def constant_coloring(arity, universe, value=0, colors=2):
    return TupleColoring(arity, colors, universe, lambda t: value)


def pentagon_coloring():
    """2-coloring of pairs from [5] with no monochromatic triangle.

    Color 0 on the five cycle edges |i-j| in {1,4}; both the cycle and its
    complement are triangle-free, which is the R(3,3) > 5 witness.
    """
    return TupleColoring(2, 2, 5, lambda t: 0 if (t[1] - t[0]) in (1, 4) else 1)


def test_tuple_coloring_validates_inputs():
    f = constant_coloring(2, 6)
    assert f.color((0, 5)) == 0
    with pytest.raises(ValueError):
        f.color((0, 1, 2))
    with pytest.raises(ValueError):
        f.color((3, 3))
    with pytest.raises(RuntimeError):
        TupleColoring(1, 2, 4, lambda t: 9).color((0,))


def test_tuple_coloring_refuses_points_outside_its_universe():
    asked = []
    f = TupleColoring(2, 2, 6, lambda t: asked.append(t) or 0)
    for tup in ((-1, 2), (3, 6), (0, 7)):
        with pytest.raises(ValueError, match=r"range\(6\)"):
            f.color(tup)
    assert f.color((0, 5)) == 0
    assert asked == [(0, 5)]


def test_brute_constant_returns_initial_segment():
    found = brute_homogeneous(constant_coloring(2, 8), 4)
    assert isinstance(found, HomogeneousSet)
    assert found.members == (0, 1, 2, 3)
    assert found.top is None
    assert found.color == 0


def test_brute_is_lexicographically_least():
    # Color (0,1) differently so every triple containing both is mixed.
    f = TupleColoring(2, 2, 6, lambda t: 1 if t == (0, 1) else 0)
    found = brute_homogeneous(f, 3)
    assert found.members == (0, 2, 3)


def test_brute_pentagon_has_no_triangle():
    outcome = brute_homogeneous(pentagon_coloring(), 3)
    assert isinstance(outcome, NoHomogeneousSet)
    assert outcome.exhaustive
    # Independent confirmation: every one of the 10 triples is mixed.
    f = pentagon_coloring()
    for triple in combinations(range(5), 3):
        colors = {f.color(p) for p in combinations(triple, 2)}
        assert len(colors) == 2


def test_brute_below_arity_is_rejected():
    with pytest.raises(ValueError):
        brute_homogeneous(constant_coloring(3, 8), 2)


@pytest.mark.parametrize(
    "search",
    [
        lambda f: brute_homogeneous(f, 3, budget=-1),
        lambda f: greedy_end_homogeneous(f, 3, budget=-1),
        lambda f: multi_homogeneous([f], 3, budget=-1),
    ],
)
def test_a_negative_budget_is_refused_before_any_tuple_is_colored(search):
    asked = []
    f = TupleColoring(2, 2, 6, lambda t: asked.append(t) or 0)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        search(f)
    assert asked == []


def test_brute_budget_zero_is_not_exhaustive():
    outcome = brute_homogeneous(pentagon_coloring(), 3, budget=0)
    assert isinstance(outcome, NoHomogeneousSet)
    assert not outcome.exhaustive


def test_six_point_pair_colorings_always_have_triangles_sampled():
    rng = random.Random(20260815)
    for _ in range(300):
        bits = rng.getrandbits(15)
        table = {
            pair: (bits >> k) & 1 for k, pair in enumerate(combinations(range(6), 2))
        }
        f = TupleColoring(2, 2, 6, lambda t, table=table: table[t])
        found = brute_homogeneous(f, 3)
        assert isinstance(found, HomogeneousSet)
        assert verify_homogeneous([f], found.members) is None


def test_greedy_constant_takes_least_members_and_first_top():
    found = greedy_end_homogeneous(constant_coloring(2, 10), 3)
    assert isinstance(found, HomogeneousSet)
    assert found.members == (0, 1, 2)
    assert found.top == 9
    assert verify_homogeneous([constant_coloring(2, 10)], found.members, found.top) is None


def test_greedy_needs_arity_at_least_two():
    with pytest.raises(ValueError):
        greedy_end_homogeneous(constant_coloring(1, 6), 2)


def test_greedy_below_reduced_arity_is_rejected_before_searching():
    # The reduced coloring has arity 3, so m = 2 is too small whether or
    # not the universe leaves room for any top candidate.
    for universe in (12, 2):
        with pytest.raises(ValueError, match="target size 2 below arity 3"):
            greedy_end_homogeneous(constant_coloring(4, universe), 2)


@pytest.mark.parametrize(
    "make, budget",
    [(lambda: constant_coloring(3, 10), None), (pentagon_coloring, None), (pentagon_coloring, 1)],
    ids=["found", "exhausted", "budget"],
)
def test_greedy_frees_the_coloring_without_cyclic_collection(make, budget):
    coloring = make()
    ref = weakref.ref(coloring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        greedy_end_homogeneous(coloring, 3, budget=budget)
        del coloring
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_greedy_chain_length_is_not_bounded_by_the_recursion_limit():
    # A chain of 150 points under a limit only 100 frames above the caller's.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        found = greedy_end_homogeneous(TupleColoring(2, 2, 160, lambda t: 0), 150)
    finally:
        sys.setrecursionlimit(limit)
    assert found == HomogeneousSet(members=tuple(range(150)), top=159, colors=(0,))


def test_greedy_stops_once_the_first_m_chain_points_are_constant():
    # Extracting only at the maximal chain (all 39 points below the top)
    # colors 90,687 tuples here; extracting at 12 chain points with every
    # viable list complete, 5,170.  Read on demand, the viable lists color
    # only the tuples of the 13 points returned: C(13, 4) = 715.
    evaluated = set()
    f = TupleColoring(4, 2, 40, lambda t: evaluated.add(t) or 0)
    found = greedy_end_homogeneous(f, 12)
    assert found.members == tuple(range(12)) and found.top == 39
    assert len(evaluated) == 715


def test_greedy_colors_only_the_tuples_of_the_set_it_returns():
    # With complete viable lists the chain nodes colored 328,570 tuples
    # here, nearly all of them against the 1,987 points no chain reads.
    evaluated = set()
    f = TupleColoring(4, 2, 2000, lambda t: evaluated.add(t) or 0)
    found = greedy_end_homogeneous(f, 12)
    assert found == HomogeneousSet(members=tuple(range(12)), top=1999, colors=(0,))
    assert evaluated == set(combinations((*range(12), 1999), 4))


def test_multi_floor_sum_colors_fewer_tuples():
    # Extracting only at maximal chains colors 14,574 distinct tuples over
    # the three levels; extracting at m chain points, 7,073, and reading
    # the viable lists on demand, 5,016.
    evaluated = set()
    fs = derived_tuple_colorings(FloorSumOracle(2), 140)
    for f in fs:
        f.evaluate = lambda t, inner=f.evaluate: evaluated.add(t) or inner(t)
    found = multi_homogeneous(fs, 18)
    assert found == HomogeneousSet(members=tuple(range(18)), top=139, colors=(0, 0, 0))
    assert len(evaluated) == 5_016


def test_greedy_parity_coloring_set_is_fully_constant():
    f = TupleColoring(2, 2, 12, lambda t: (t[0] + t[1]) % 2)
    found = greedy_end_homogeneous(f, 3)
    assert isinstance(found, HomogeneousSet)
    assert verify_homogeneous([f], found.members, found.top) is None
    # End-replacement law: dropping the last slot onto the top fixes colors.
    for pair in combinations(found.members, 2):
        assert f.color(pair) == f.color((pair[0], found.top))


def test_greedy_end_replacement_law_holds_at_arity_three():
    f = TupleColoring(3, 2, 10, lambda t: (t[0] + t[1] + t[2]) % 2)
    found = greedy_end_homogeneous(f, 4)
    assert isinstance(found, HomogeneousSet)
    for tup in combinations(found.members, 3):
        assert f.color(tup) == f.color(tup[:2] + (found.top,))


def test_greedy_adversarial_last_slot_color_fails_exhaustively():
    # The only viable top is 4 (others have too few points below), and the
    # color of any tuple ending at 4 is one the coloring never takes below,
    # so no third chain point can ever agree.
    f = TupleColoring(3, 2, 5, lambda t: 1 if t[2] == 4 else 0)
    outcome = greedy_end_homogeneous(f, 4)
    assert isinstance(outcome, NoHomogeneousSet)
    assert outcome.exhaustive and outcome.nodes == 11
    assert verify_homogeneous([f], (0, 1, 2, 3), top=4) is not None


def test_greedy_pentagon_notfound_is_exhaustive():
    outcome = greedy_end_homogeneous(pentagon_coloring(), 3)
    assert isinstance(outcome, NoHomogeneousSet)
    assert outcome.exhaustive and outcome.nodes == 12


def test_greedy_budget_counts_the_node_that_crosses_it():
    outcome = greedy_end_homogeneous(pentagon_coloring(), 3, budget=1)
    assert outcome == NoHomogeneousSet(reason="budget exceeded", exhaustive=False, nodes=2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_not_found_means_no_constant_subset_one_larger(data):
    # Small table colorings, well below the implicit caps, so both searches
    # are complete: m members plus a top are m + 1 constant points.
    arity = data.draw(st.integers(2, 3), label="arity")
    n = data.draw(st.integers(5, 9), label="points")
    colors = data.draw(st.integers(2, 3), label="colors")
    m = data.draw(st.integers(arity - 1, 4), label="m")
    tuples = list(combinations(range(n), arity))
    values = data.draw(
        st.lists(st.integers(0, colors - 1), min_size=len(tuples), max_size=len(tuples)),
        label="table",
    )
    table = dict(zip(tuples, values))
    found = greedy_end_homogeneous(TupleColoring(arity, colors, n, table.__getitem__), m)
    if isinstance(found, HomogeneousSet):
        points = (*found.members, found.top)
        assert len(found.members) == m and list(points) == sorted(set(points))
        assert {table[t] for t in combinations(points, arity)} == {found.color}
    else:
        assert found.exhaustive
        brute = brute_homogeneous(TupleColoring(arity, colors, n, table.__getitem__), m + 1)
        assert isinstance(brute, NoHomogeneousSet) and brute.exhaustive


def test_multi_all_constant_takes_first_indices():
    fs = [constant_coloring(2, 9), constant_coloring(3, 9, value=1)]
    found = multi_homogeneous(fs, 4)
    assert isinstance(found, HomogeneousSet)
    assert found.members == (0, 1, 2, 3)
    assert found.top == 8
    assert found.colors == (0, 1)


def test_multi_four_count_derived_colorings():
    fs = derived_tuple_colorings(FourCountOracle(2), 12)
    assert [f.arity for f in fs] == [2, 3, 4]
    found = multi_homogeneous(fs, 5)
    assert isinstance(found, HomogeneousSet)
    assert len(found.members) == 5
    assert found.colors == (0, 1, 0)
    assert verify_homogeneous(fs, found.members, found.top) is None


def test_multi_unsatisfiable_reports_first_level_and_is_exhaustive():
    fs = [pentagon_coloring(), constant_coloring(3, 5)]
    outcome = multi_homogeneous(fs, 3)
    assert isinstance(outcome, NoHomogeneousSet)
    assert outcome.exhaustive
    assert outcome.level == 0


def test_multi_reports_the_first_level_not_constant_on_the_level_0_set():
    # The level-0 set (0, 1, 4) is no triangle of the pentagon coloring,
    # and the direct scan finds no monochromatic triangle either.
    fs = [constant_coloring(2, 5), pentagon_coloring()]
    outcome = multi_homogeneous(fs, 2)
    assert isinstance(outcome, NoHomogeneousSet)
    assert outcome.exhaustive
    assert outcome.level == 1


def test_multi_falls_back_to_the_direct_scan():
    # The level-0 set is (0, 1, 5); level 1 is constant only on sets
    # avoiding 5, so the scan returns the least of those.
    fs = [constant_coloring(2, 6), TupleColoring(2, 2, 6, lambda t: int(t[1] == 5))]
    found = multi_homogeneous(fs, 2)
    assert found == HomogeneousSet(members=(0, 1), top=2, colors=(0, 0))


def test_multi_below_largest_arity_is_rejected():
    with pytest.raises(ValueError):
        multi_homogeneous([constant_coloring(2, 8), constant_coloring(4, 8)], 2)


def test_multi_requires_shared_universe():
    with pytest.raises(ValueError):
        multi_homogeneous([constant_coloring(2, 5), constant_coloring(2, 6)], 2)
    with pytest.raises(ValueError):
        multi_homogeneous([], 2)


def test_verifier_reports_disagreements_with_both_tuples():
    f = TupleColoring(2, 2, 4, lambda t: 1 if t == (0, 1) else 0)
    report = verify_homogeneous([f], (0, 1, 2))
    assert report is not None
    position, t1, c1, t2, c2 = report
    assert position == 0
    assert {c1, c2} == {0, 1}
    assert f.color(t1) == c1 and f.color(t2) == c2


def test_verifier_accepts_with_top_included():
    f = constant_coloring(2, 6)
    assert verify_homogeneous([f], (0, 1), top=5) is None


# ---------------------------------------------------------------------------
# incremental end agreement against a full re-check


def reference_greedy_end_homogeneous(coloring, m, points=None, budget=None):
    """The end-agreement search with every chain re-checking every y.

    Each chain filters all points below the top afresh against every
    (n-1)-tuple y of the chain; greedy_end_homogeneous must give the same
    outcome while checking only the y through the newest chain point.
    """
    n = coloring.arity
    pts = sorted(points) if points is not None else list(range(coloring.universe))
    if budget is not None:
        cap = budget
    elif len(pts) <= FULL_SCAN_POINTS and n <= FULL_SCAN_ARITY:
        cap = math.inf
    else:
        cap = TRUNCATED_BUDGET
    state = {"nodes": 0}

    class Exceeded(Exception):
        pass

    def grow(top, below, chain, reduced):
        state["nodes"] += 1
        if state["nodes"] > cap:
            raise Exceeded
        viable = []
        floor = chain[-1] if chain else None
        for alpha in below:
            if floor is not None and alpha <= floor:
                continue
            if all(
                coloring.color(y + (alpha,)) == coloring.color(y + (top,))
                for y in combinations(chain, n - 1)
            ):
                viable.append(alpha)
        if not viable:
            found = brute_homogeneous(reduced, m, points=chain)
            if isinstance(found, HomogeneousSet):
                if verify_homogeneous([coloring], found.members, top) is not None:
                    raise AssertionError("extracted set failed verification")
                return HomogeneousSet(members=found.members, top=top, colors=found.colors)
            return None
        for alpha in viable:
            result = grow(top, below, chain + [alpha], reduced)
            if result is not None:
                return result
        return None

    truncated = False
    for top in reversed(pts):
        below = [p for p in pts if p < top]
        if len(below) < m:
            continue
        reduced = TupleColoring(
            n - 1, coloring.colors, coloring.universe, lambda y, t=top: coloring.color(y + (t,))
        )
        try:
            result = grow(top, below, [], reduced)
        except Exceeded:
            truncated = True
            break
        if result is not None:
            return result
    return NoHomogeneousSet(
        reason="budget exceeded" if truncated else "every top candidate exhausted",
        exhaustive=not truncated,
        nodes=state["nodes"],
    )


class RecordingColoring(TupleColoring):
    """A table coloring that counts memo lookups and records evaluated tuples.

    calls counts the colors read through _lookup: every read of color and
    of a search's trusted path.  verify_homogeneous reads a memo that holds
    every tuple in one color directly, so those reads are not counted.
    """

    def __init__(self, arity, colors, universe, table):
        super().__init__(arity, colors, universe, self._read_table)
        self.table = table
        self.calls = 0
        self.evaluated = set()

    def _read_table(self, tup):
        self.evaluated.add(tup)
        return self.table[tup]

    def _lookup(self, key):
        self.calls += 1
        return super()._lookup(key)


def test_incremental_end_agreement_matches_full_recheck():
    # The reference extracts only at maximal chains; the search also
    # extracts from a chain of exactly m points, which finds the same set
    # sooner.  So where the reference's budget runs out on the way to that
    # leaf, the search may instead return the unbudgeted reference's set.
    rng = random.Random(20261018)
    outcomes = {"found": 0, "exhausted": 0, "budget": 0, "budget, found now": 0}
    for run in range(240):
        arity = 2 + run % 3
        universe = rng.randint(arity + 3, 12 if arity == 4 else 14)
        colors = rng.choice((2, 2, 3))
        bias = rng.choice((0.5, 0.75, 0.9))
        table = {
            tup: 0 if rng.random() < bias else rng.randrange(1, colors)
            for tup in combinations(range(universe), arity)
        }
        m = rng.randint(arity, min(universe - 1, arity + 4))
        points = None if run % 2 else sorted(rng.sample(range(universe), universe - 2))
        budget = (None, 5, 50, 500)[(run // 3) % 4]
        ours = RecordingColoring(arity, colors, universe, table)
        ref = RecordingColoring(arity, colors, universe, table)
        outcome = greedy_end_homogeneous(ours, m, points=points, budget=budget)
        expected = reference_greedy_end_homogeneous(ref, m, points=points, budget=budget)
        assert ours.evaluated <= ref.evaluated
        assert ours.calls <= ref.calls
        if isinstance(expected, HomogeneousSet) or expected.exhaustive:
            assert outcome == expected, (run, arity, universe, m, budget)
            outcomes["found" if isinstance(outcome, HomogeneousSet) else "exhausted"] += 1
        elif outcome == expected:
            outcomes["budget"] += 1
        else:
            full = RecordingColoring(arity, colors, universe, table)
            unbudgeted = reference_greedy_end_homogeneous(full, m, points=points)
            assert isinstance(unbudgeted, HomogeneousSet), (run, arity, universe, m, budget)
            assert outcome == unbudgeted, (run, arity, universe, m, budget)
            outcomes["budget, found now"] += 1
    # The sample reaches every kind of outcome; the seed gives 9 budget
    # cut-offs that now find the set.
    assert min(outcomes["found"], outcomes["exhausted"], outcomes["budget"]) >= 10, outcomes
    assert outcomes["budget, found now"] >= 5, outcomes


def test_incremental_end_agreement_colors_fewer_tuples():
    table = {tup: 0 for tup in combinations(range(20), 4)}
    ours = RecordingColoring(4, 2, 20, table)
    ref = RecordingColoring(4, 2, 20, table)
    outcome = greedy_end_homogeneous(ours, 6)
    assert outcome == reference_greedy_end_homogeneous(ref, 6)
    assert outcome.members == (0, 1, 2, 3, 4, 5) and outcome.top == 19
    assert ours.evaluated <= ref.evaluated
    assert ours.calls < ref.calls


# ---------------------------------------------------------------------------
# one end-agreement search against iterated restriction


def reference_multi_homogeneous(colorings, m, points=None, budget=None):
    """Iterated restriction: an end-agreement search per coloring, each on
    the points the previous one returned, then a simultaneous scan.

    multi_homogeneous must give the same sets, exhaustive flags and levels
    while searching only the first coloring.
    """
    pts = sorted(points) if points is not None else list(range(colorings[0].universe))
    current = pts
    result = None
    for level, coloring in enumerate(colorings):
        result = greedy_end_homogeneous(coloring, m, points=current, budget=budget)
        if isinstance(result, NoHomogeneousSet):
            if budget is not None:
                cap = budget
            elif len(pts) <= FULL_SCAN_POINTS and max(f.arity for f in colorings) <= FULL_SCAN_ARITY:
                cap = math.inf
            else:
                cap = TRUNCATED_BUDGET
            scanned = 0
            for candidate in combinations(pts, m + 1):
                if scanned >= cap:
                    return NoHomogeneousSet("budget exceeded", False, scanned, level)
                scanned += 1
                colors = []
                for f in colorings:
                    tuples = list(combinations(candidate, f.arity))
                    if len({f.color(tup) for tup in tuples}) > 1:
                        break
                    colors.append(f.color(tuples[0]))
                else:
                    return HomogeneousSet(candidate[:-1], candidate[-1], tuple(colors))
            return NoHomogeneousSet("no simultaneous homogeneous set", True, scanned, level)
        current = sorted(result.all_points())
    points_found = sorted(result.members) + [result.top]
    colors = tuple(f.color(tuple(points_found[: f.arity])) for f in colorings)
    return HomogeneousSet(result.members, result.top, colors)


def test_multi_matches_iterated_restriction():
    rng = random.Random(20261019)
    outcomes = {"found": 0, "level 0": 0, "level 1+": 0}
    for run in range(400):
        arities = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
        universe = rng.randint(5, 11)
        bias = rng.choice((0.6, 0.8, 0.95))
        colorings = []
        for arity in arities:
            table = {
                tup: 0 if rng.random() < bias else 1
                for tup in combinations(range(universe), arity)
            }
            colorings.append(TupleColoring(arity, 2, universe, lambda t, table=table: table[t]))
        m = rng.randint(max(arities) - 1, min(universe - 1, max(arities) + 2))
        points = None if run % 2 else sorted(rng.sample(range(universe), universe - 1))
        budget = (None, 5, 50, 500)[(run // 2) % 4]
        outcome = multi_homogeneous(colorings, m, points=points, budget=budget)
        expected = reference_multi_homogeneous(colorings, m, points=points, budget=budget)
        if isinstance(expected, HomogeneousSet):
            assert outcome == expected, run
            assert verify_homogeneous(colorings, outcome.members, outcome.top) is None
            outcomes["found"] += 1
        else:
            assert isinstance(outcome, NoHomogeneousSet), run
            assert (outcome.exhaustive, outcome.level) == (expected.exhaustive, expected.level)
            outcomes["level 0" if expected.level == 0 else "level 1+"] += 1
    # The sample reaches every kind of outcome.
    assert min(outcomes.values()) >= 10, outcomes


# ---------------------------------------------------------------------------
# the trusted path against a coloring that checks every read


class RecordingTable(TupleColoring):
    """A table coloring that records its evaluations in order."""

    def __init__(self, arity, colors, universe, table):
        super().__init__(arity, colors, universe, self._read_table)
        self.table = table
        self.evaluated = []

    def _read_table(self, tup):
        self.evaluated.append(tup)
        return self.table[tup]


class CheckEveryRead(RecordingTable):
    """The reference for the searches' trusted path: every read, however
    the search makes it, goes through one color that checks the tuple on a
    memo miss, and no point list is checked up front."""

    def color(self, tup):
        key = tuple(tup)
        cached = self._memo.get(key)
        if cached is None:
            if len(key) != self.arity:
                raise ValueError(f"expected arity {self.arity}, got {len(key)}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"tuple must be strictly increasing, got {key}")
            if any(not 0 <= p < self.universe for p in key):
                raise ValueError(f"tuple must lie in range({self.universe}), got {key}")
            cached = self.evaluate(key)
            if not 0 <= cached < self.colors:
                raise RuntimeError(f"coloring produced out-of-range color {cached}")
            self._memo[key] = cached
        return cached

    _lookup = color

    def _check(self, points, what):
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_searches_on_the_trusted_path_match_checking_every_read(data):
    universe = data.draw(st.integers(2, 13), label="universe")
    colors = data.draw(st.integers(1, 3), label="colors")
    arities = data.draw(
        st.lists(st.integers(2, min(4, universe)), min_size=1, max_size=3), label="arities"
    )
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table seed"))
    bias = data.draw(st.sampled_from((0.5, 0.8, 0.95)), label="bias")
    tables = [
        {
            tup: 0 if rng.random() < bias else rng.randrange(colors)
            for tup in combinations(range(universe), arity)
        }
        for arity in arities
    ]
    points = data.draw(
        st.none() | st.lists(st.integers(0, universe - 1), unique=True), label="points"
    )
    budget = data.draw(st.none() | st.integers(1, 60), label="budget")
    m = data.draw(st.integers(max(arities) - 1, universe), label="m")
    searches = [
        lambda fs: multi_homogeneous(fs, m, points=points, budget=budget),
        lambda fs: greedy_end_homogeneous(fs[0], m, points=points, budget=budget),
    ]
    if m >= arities[0]:
        searches.append(lambda fs: brute_homogeneous(fs[0], m, points=points, budget=budget))
    for search in searches:
        runs = []
        for kind in (RecordingTable, CheckEveryRead):
            fs = [kind(a, colors, universe, table) for a, table in zip(arities, tables)]
            runs.append(
                (search(fs), [f.evaluated for f in fs], [list(f._memo.items()) for f in fs])
            )
        assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "points, bad",
    [
        ((0, 2, 2, 4), "strictly increasing"),
        ((0, 3, 9), r"range\(9\)"),
        ((-1, 2, 3), r"range\(9\)"),
    ],
)
def test_a_bad_point_list_is_refused_before_any_tuple_is_colored(points, bad):
    asked = []
    searches = [
        lambda f: list(f.colors_on(points)),
        lambda f: verify_homogeneous([f], points),
        lambda f: brute_homogeneous(f, 3, points=points),
        lambda f: greedy_end_homogeneous(f, 2, points=points),
        lambda f: multi_homogeneous([f, f], 2, points=points),
    ]
    for search in searches:
        f = TupleColoring(2, 2, 9, lambda t: asked.append(t) or 0)
        with pytest.raises(ValueError, match=bad):
            search(f)
    with pytest.raises(ValueError, match="strictly increasing"):
        list(TupleColoring(2, 2, 9, asked.append).colors_on((0, 4, 3)))
    with pytest.raises(ValueError, match="strictly increasing"):
        verify_homogeneous([TupleColoring(2, 2, 9, asked.append)], (0, 4), top=3)
    assert asked == []


def test_colors_on_reads_arity_subsets_in_order_through_the_memo():
    asked = []
    f = TupleColoring(2, 3, 6, lambda t: asked.append(t) or (t[0] + t[1]) % 3)
    assert f.color((1, 4)) == 2
    assert list(f.colors_on([0, 1, 4])) == [1, 1, 2]
    assert asked == [(1, 4), (0, 1), (0, 4)]
    # Colors are computed as they are read.
    seen = f.colors_on([2, 3, 5])
    assert next(seen) == 2 and asked[-1] == (2, 3)
    assert len(asked) == 4


def reference_verify_homogeneous(colorings, members, top=None):
    """Every tuple of every coloring read through the memo in combinations
    order, up to the first disagreement, with no pass over the memo first."""
    points = sorted(members) + ([top] if top is not None else [])
    for position, coloring in enumerate(colorings):
        seen = {}
        for tup, c in zip(combinations(points, coloring.arity), coloring.colors_on(points)):
            seen.setdefault(c, tup)
            if len(seen) > 1:
                (c1, t1), (c2, t2) = sorted(seen.items())[:2]
                return (position, t1, c1, t2, c2)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_homogeneous_matches_the_ordered_walk_on_partly_filled_memos(data):
    universe = data.draw(st.integers(1, 9), label="universe")
    colors = data.draw(st.integers(1, 3), label="colors")
    arities = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3), label="arities")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="table seed"))
    bias = data.draw(st.sampled_from((0.0, 0.9, 1.0)), label="bias")
    tables = [
        {
            tup: 0 if rng.random() < bias else rng.randrange(colors)
            for tup in combinations(range(universe), arity)
        }
        for arity in arities
    ]
    points = data.draw(
        st.lists(st.integers(0, universe - 1), unique=True, max_size=7), label="points"
    )
    top = None
    if points and data.draw(st.booleans(), label="with top"):
        points = sorted(points)
        top = points.pop()
    filled = data.draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)), label="memo share")
    memo_seed = rng.getrandbits(32)
    runs = []
    for verify in (verify_homogeneous, reference_verify_homogeneous):
        fs = [RecordingTable(a, colors, universe, table) for a, table in zip(arities, tables)]
        memo_rng = random.Random(memo_seed)
        for f, table in zip(fs, tables):
            f._memo.update((tup, c) for tup, c in table.items() if memo_rng.random() < filled)
        runs.append((verify(fs, points, top), [f.evaluated for f in fs]))
    assert runs[0] == runs[1]
