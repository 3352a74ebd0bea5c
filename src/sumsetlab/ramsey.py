"""Finite homogeneous-set searches for colorings of increasing tuples.

Three searches live here.  brute_homogeneous scans m-subsets of the
universe in lexicographic order and returns the first one on which the
coloring is constant, so its failures are genuinely exhaustive.
greedy_end_homogeneous implements the end-agreement strategy: pick a
candidate top t, grow a set of points that agree with t in the last slot of
every tuple, and then extract a monochromatic set for the reduced coloring
g(y) = f(y, t); dead ends backtrack, and with an unbounded budget the
procedure is a complete decision method for "some m members plus a top are
fully constant".  The backtracking is one loop over an explicit stack of
viable-point lists, so a chain may be longer than the interpreter's
recursion limit.  Extraction runs at every maximal chain and, earlier, on
every chain of exactly m points, which is the set a maximal chain through it
would yield first.  Agreement is checked incrementally: the candidates
passed down to a chain already agree with t on every tuple y that avoids
the newest chain point, so only the y through that point are colored.  The
lists of viable points are read on demand, one candidate at a time, so a
walk that takes the first viable point at each level colors little beyond
the tuples of the set it returns.
multi_homogeneous runs the end-agreement search on the first coloring,
tests every other coloring for constancy on the m + 1 points it found, and
otherwise falls back to the same lexicographic scan as brute_homogeneous,
over (m + 1)-subsets and every coloring at once, so that its NotFound is
exhaustive too.

Every returned set is re-checked by verify_homogeneous, a deliberately
plain enumerator that shares no logic with the searches.

A TupleColoring memoises its colors by index tuple.  Its public color
checks each new tuple's arity, order and range.  The searches check their
point list once, on entry, and then read colors through the memo without
per-tuple checks: every subset of a strictly increasing list from
range(universe) is one itself, and the tuples the end-agreement search
builds (chain points, a later point, then the top) are increasing by
construction.  So points that repeat or leave range(universe) are refused
before any tuple is colored.  verify_homogeneous and colors_on likewise
check a point list once and then color all its arity-subsets;
verify_homogeneous first reads them straight off the memo in one pass,
which settles a coloring the search left fully memoised in one color.
Each tuple is evaluated at most once, in the order the search asks for it.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .record import Record

FULL_SCAN_POINTS = 24
FULL_SCAN_ARITY = 4
TRUNCATED_BUDGET = 200_000


class TupleColoring:
    """Total coloring of strictly increasing tuples from range(universe).

    Colors are cached by index tuple.  color checks a tuple's arity, order
    and range before its first evaluation.  colors_on checks a point list
    once and then colors its arity-subsets unchecked, since every subset of
    a strictly increasing list from range(universe) is one itself.  Both
    read the memo through _lookup, which the searches of this module call
    directly on tuples built from a point list they checked on entry.
    """

    def __init__(self, arity: int, colors: int, universe: int, evaluate: Callable):
        if arity < 0 or colors < 1 or universe < 0:
            raise ValueError("arity must be >= 0, colors >= 1, universe >= 0")
        self.arity = arity
        self.colors = colors
        self.universe = universe
        self._points = range(universe)
        self.evaluate = evaluate
        self._memo: dict[tuple[int, ...], int] = {}

    def color(self, tup: Sequence[int]) -> int:
        key = tuple(tup)
        if key not in self._memo:
            if len(key) != self.arity:
                raise ValueError(f"expected arity {self.arity}, got {len(key)}")
            self._check(key, "tuple")
        return self._lookup(key)

    def colors_on(self, points: Sequence[int]) -> Iterator[int]:
        """The color of each arity-subset of points, in combinations order.

        points must be strictly increasing and lie in range(universe); they
        are checked here, before any tuple is colored.  The colors are
        computed as they are read, so a reader that stops early evaluates
        no tuple beyond the last one it read.
        """
        self._check(points, "points")
        return map(self._lookup, combinations(points, self.arity))

    def _check(self, points: Sequence[int], what: str) -> None:
        if not all(map(operator.lt, points, points[1:])):
            raise ValueError(f"{what} must be strictly increasing, got {points}")
        if not all(map(self._points.__contains__, points)):
            raise ValueError(f"{what} must lie in range({self.universe}), got {points}")

    def _lookup(self, key: tuple[int, ...]) -> int:
        """The memoised color of key, which the caller guarantees has the
        coloring's arity and is strictly increasing in range(universe)."""
        cached = self._memo.get(key)
        if cached is None:
            cached = self.evaluate(key)
            if not 0 <= cached < self.colors:
                raise RuntimeError(f"coloring produced out-of-range color {cached}")
            self._memo[key] = cached
        return cached


class HomogeneousSet(Record):
    """Members (and optionally a designated top above them) plus the constant
    color seen by each covered coloring."""

    members: tuple[int, ...]
    top: int | None
    colors: tuple[int, ...]

    @property
    def color(self) -> int:
        return self.colors[0]

    def all_points(self) -> tuple[int, ...]:
        return self.members if self.top is None else self.members + (self.top,)


class NoHomogeneousSet(Record):
    """Failure outcome; exhaustive is False when a budget cut the search off."""

    reason: str
    exhaustive: bool
    nodes: int
    level: int | None = None


def _effective_budget(budget: int | None, n_points: int, arity: int) -> float:
    if budget is not None:
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        return budget
    if n_points <= FULL_SCAN_POINTS and arity <= FULL_SCAN_ARITY:
        return math.inf
    return TRUNCATED_BUDGET


def verify_homogeneous(
    colorings: Sequence[TupleColoring], members: Sequence[int], top: int | None = None
):
    """Read the color of every tuple of every coloring; None if all constant.

    The colors come from each coloring's memo where the search left them,
    and are evaluated otherwise.  Returns (coloring position, tuple, color,
    tuple, color) for the first disagreement found.  Kept free of any
    search logic on purpose.

    The points are checked once per coloring, before any tuple is read.
    A coloring whose memo holds every tuple in one color is then settled
    by one pass over the memo.  Otherwise its tuples are read in
    combinations order, evaluating the missing ones, up to the first
    disagreement; so the result, and the tuples evaluated and their
    order, are those of reading every coloring in that order.
    """
    points = sorted(members) + ([top] if top is not None else [])
    for position, coloring in enumerate(colorings):
        coloring._check(points, "points")
        memoised = set(map(coloring._memo.get, combinations(points, coloring.arity)))
        if len(memoised) <= 1 and None not in memoised:
            continue
        seen: dict[int, tuple[int, ...]] = {}
        for tup in combinations(points, coloring.arity):
            c = coloring._lookup(tup)
            seen.setdefault(c, tup)
            if len(seen) > 1:
                (c1, t1), (c2, t2) = sorted(seen.items())[:2]
                return (position, t1, c1, t2, c2)
    return None


def _constant_prefix(colorings: Sequence[TupleColoring], points: Sequence[int]) -> tuple[int, ...]:
    """The colors of the leading colorings that are constant on points,
    up to the first one that is not.

    points must be strictly increasing in range(universe); every caller
    passes a subset of a point list checked on entry to its search, so the
    tuples are read through the memo unchecked.
    """
    colors = []
    for coloring in colorings:
        lookup = coloring._lookup
        tuples = combinations(points, coloring.arity)
        first = lookup(next(tuples))
        for tup in tuples:
            if lookup(tup) != first:
                return tuple(colors)
        colors.append(first)
    return tuple(colors)


def _search_points(coloring: TupleColoring, points: Sequence[int] | None) -> list[int]:
    """points sorted, or all of range(universe) when None; refused before
    any tuple is colored unless they are distinct and in range(universe)."""
    if points is None:
        return list(range(coloring.universe))
    pts = sorted(points)
    coloring._check(pts, "points")
    return pts


def _least_constant_subset(
    colorings: Sequence[TupleColoring], size: int, pts: list[int], budget: int | None, empty: str
):
    """Lexicographically least size-subset of pts on which every coloring is
    constant, re-checked by verify_homogeneous; empty is the reason given
    when the scan completes without one."""
    cap = _effective_budget(budget, len(pts), max(f.arity for f in colorings))
    scanned = 0
    for candidate in combinations(pts, size):
        if scanned >= cap:
            return NoHomogeneousSet(reason="budget exceeded", exhaustive=False, nodes=scanned)
        scanned += 1
        colors = _constant_prefix(colorings, candidate)
        if len(colors) == len(colorings):
            if verify_homogeneous(colorings, candidate) is not None:
                raise RuntimeError("verifier rejected a set the scan accepted")
            return HomogeneousSet(members=candidate, top=None, colors=colors)
    return NoHomogeneousSet(reason=empty, exhaustive=True, nodes=scanned)


def brute_homogeneous(
    coloring: TupleColoring, m: int, points: Sequence[int] | None = None, budget: int | None = None
):
    """Lexicographically least m-subset on which the coloring is constant."""
    if m < coloring.arity:
        raise ValueError(f"target size {m} below arity {coloring.arity}")
    pts = _search_points(coloring, points)
    return _least_constant_subset(
        [coloring], m, pts, budget, "no homogeneous set of the requested size"
    )


def _extract(coloring: TupleColoring, reduced: TupleColoring, m: int, top: int, chain: list[int]):
    """The least m-subset of chain on which reduced is constant, as members
    below top and re-checked against coloring; None when there is none."""
    found = brute_homogeneous(reduced, m, points=chain)
    if not isinstance(found, HomogeneousSet):
        return None
    result = HomogeneousSet(members=found.members, top=top, colors=found.colors)
    if verify_homogeneous([coloring], result.members, result.top) is not None:
        raise RuntimeError("extracted set failed independent verification")
    return result


def _extend_level(
    coloring: TupleColoring,
    top: int,
    chain: list[int],
    levels: list[list[int]],
    reads: list[int],
) -> bool:
    """Append the next viable point for chain[d] to the top level,
    levels[d]; False when there is none.

    Level k >= 1 reads levels[k - 1] from position reads[k] on and keeps
    each alpha whose tuples through chain[k - 1] agree with top:
    f(z + (chain[k - 1], alpha)) == f(z + (chain[k - 1], top)) for the
    (n-2)-tuples z below chain[k - 1].  When its source has no unread point
    left, the level below is extended first, so the walk moves down and
    back up the levels in one loop.  Level 0 is complete, so a dry source
    there means level d has no further point.
    """
    color = coloring._lookup
    d = k = len(levels) - 1
    while k > 0:
        source = levels[k - 1]
        if reads[k] == len(source):
            k -= 1
            continue
        alpha = source[reads[k]]
        reads[k] += 1
        newest = chain[k - 1]
        if all(
            color(z + (newest, alpha)) == color(z + (newest, top))
            for z in combinations(chain[: k - 1], coloring.arity - 2)
        ):
            levels[k].append(alpha)
            if k == d:
                return True
            k += 1
    return False


def greedy_end_homogeneous(
    coloring: TupleColoring, m: int, points: Sequence[int] | None = None, budget: int | None = None
):
    """End-agreement search: grow points that mimic a top, then extract.

    For each top candidate t (largest first) the search grows a chain A'
    below t, always taking the least point alpha whose tuples agree with t
    in the last slot: f(y + (alpha,)) == f(y + (t,)) for every increasing
    (n-1)-tuple y from A'.  At a maximal chain it runs brute_homogeneous on
    g(y) = f(y + (t,)) and, on success, returns the extracted members with
    top t; otherwise it backtracks.  With an unexhausted budget a NotFound
    means no m members plus top are fully constant anywhere in the points.

    A chain of exactly m points is extracted from at once, before it grows:
    the first leaf below it is its leftmost maximal chain, which starts with
    these m points, and brute_homogeneous tests them first.  So a success
    there is the set the leaf would return, and failures, node counts and
    exhaustive flags are those of extracting at maximal chains only, except
    that a budget which would run out on the way to that leaf no longer
    stops the search from returning the set.

    Invariant: the viable points for chain[d] are read from those for
    chain[d - 1] above chain[d - 1], and each of them already agrees with
    t on every y that avoids chain[d - 1].  So level d checks only
    y = z + (chain[d - 1],) for the (n-2)-tuples z below it; the viable
    lists and node counts are those of checking every y afresh.

    The viable lists are read on demand.  levels[d] holds the viable points
    for chain[d] found so far, and reads[d] is how far it has read
    levels[d - 1]; levels[0], the points below t, is complete from the
    start.  A level is extended by one point only when the walk needs one:
    to descend, to replace a chain point after backing up, or to find that
    a chain is maximal (_extend_level).  So the walk colors a subset of the
    tuples that complete lists would, in another order.

    The walk is one loop over an explicit stack: chain[d] was taken from
    levels[d], and nexts[d] is the index of the next point to try in its
    place.  Chain length is not bounded by the interpreter's recursion
    limit.  nodes counts one per chain visited, including the one that
    crosses the budget.
    """
    n = coloring.arity
    if n < 2:
        raise ValueError(f"end-agreement search needs arity >= 2, got {n}")
    if m < n - 1:
        raise ValueError(f"target size {m} below arity {n - 1}")
    pts = _search_points(coloring, points)
    cap = _effective_budget(budget, len(pts), n)
    nodes = 0
    for top in reversed(pts):
        below = [p for p in pts if p < top]
        if len(below) < m:
            continue
        reduced = TupleColoring(
            arity=n - 1,
            colors=coloring.colors,
            universe=coloring.universe,
            evaluate=lambda y, t=top: coloring._lookup(y + (t,)),
        )
        chain: list[int] = []
        levels = [below]
        reads = [0]
        nexts = [0]
        while True:
            nodes += 1
            if nodes > cap:
                return NoHomogeneousSet(reason="budget exceeded", exhaustive=False, nodes=nodes)
            if len(chain) == m:
                result = _extract(coloring, reduced, m, top, chain)
                if result is not None:
                    return result
            if not levels[-1] and not _extend_level(coloring, top, chain, levels, reads):
                result = _extract(coloring, reduced, m, top, chain)
                if result is not None:
                    return result
            # Back up past exhausted levels, then put the next point in place.
            while (
                levels
                and nexts[-1] == len(levels[-1])
                and not _extend_level(coloring, top, chain, levels, reads)
            ):
                levels.pop()
                reads.pop()
                nexts.pop()
            if not levels:
                break
            depth = len(levels) - 1
            chain[depth:] = [levels[depth][nexts[depth]]]
            nexts[depth] += 1
            levels.append([])
            reads.append(nexts[depth])
            nexts.append(0)
    return NoHomogeneousSet(reason="every top candidate exhausted", exhaustive=True, nodes=nodes)


def multi_homogeneous(
    colorings: Sequence[TupleColoring],
    m: int,
    points: Sequence[int] | None = None,
    budget: int | None = None,
):
    """Members plus top homogeneous for every listed coloring at once.

    The end-agreement search runs once, on the first coloring, and its
    m + 1 points are kept when every other coloring is constant on them.
    Otherwise a direct scan of the (m + 1)-subsets of the original points
    settles the matter, so a NotFound with exhaustive=True really means no
    such set exists.  A NotFound's level is the first coloring not constant
    on the level-0 set, or 0 when the level-0 search found none.
    """
    if not colorings:
        raise ValueError("need at least one coloring")
    universes = {f.universe for f in colorings}
    if len(universes) != 1:
        raise ValueError("colorings must share a universe")
    arity = max(f.arity for f in colorings)
    if m + 1 < arity:
        raise ValueError(f"target size {m} plus a top below arity {arity}")
    pts = _search_points(colorings[0], points)
    found = greedy_end_homogeneous(colorings[0], m, points=pts, budget=budget)
    if isinstance(found, NoHomogeneousSet):
        level, why, nodes = 0, found.reason, found.nodes
    else:
        colors = found.colors + _constant_prefix(colorings[1:], found.all_points())
        if len(colors) == len(colorings):
            if verify_homogeneous(colorings, found.members, found.top) is not None:
                raise RuntimeError("the level-0 set failed independent verification")
            return HomogeneousSet(members=found.members, top=found.top, colors=colors)
        level, why, nodes = len(colors), "not constant on the level-0 set", 0
    scan = _least_constant_subset(colorings, m + 1, pts, budget, "no simultaneous homogeneous set")
    if isinstance(scan, HomogeneousSet):
        return HomogeneousSet(members=scan.members[:-1], top=scan.members[-1], colors=scan.colors)
    return NoHomogeneousSet(
        reason=f"level {level} ({why}); direct scan: {scan.reason}",
        exhaustive=scan.exhaustive,
        nodes=nodes + scan.nodes,
        level=level,
    )
