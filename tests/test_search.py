"""Tests for the bad-coloring search and the threshold scanner.

The thresholds asserted here were first computed by exhaustive enumeration
over all r^M colorings (no pruning, no symmetry breaking) and then frozen;
test_small_universes_match_independent_enumeration keeps a compact version
of that cross-check alive inside the suite.  For k = 2 and two colors the
least universe where every coloring admits a monochromatic pair sumset is
M = 14.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import re
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab.search
from sumsetlab.search import (
    ESCAPABLE,
    FORCED,
    UNDECIDED,
    BadSearch,
    NatColoring,
    ThresholdRecord,
    _ScanCheckpoint,
    _parallel_results,
    _task_prefixes,
    find_bad_coloring,
    has_mono_sumset,
    threshold_scan,
    write_csv,
    write_text_atomic,
)

LEAST_FORCED_M = 14
WITNESS_M4 = (0, 0, 0, 1)
WITNESS_M10 = (0, 0, 0, 1, 0, 0, 0, 1, 0, 1)
WITNESS_M12 = (0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1)
WITNESS_M13 = (0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0)


def all_pair_sums_one_color(colors, X):
    """Inline re-statement of 'X + X is monochromatic' used as a second
    opinion against has_mono_sumset; colors is a plain tuple."""
    sums = [a + b for a in X for b in X if a <= b]
    return len({colors[s - 1] for s in sums}) == 1


def in_first_use_order(colors):
    """Each color is 0 or at most one above the largest color before it."""
    return all(c <= max(colors[:i], default=-1) + 1 for i, c in enumerate(colors))


def reference_mono_sumset(coloring, k, x_max=None):
    """Lexicographically least X of size k with X + X monochromatic, else
    None: every k-subset of {1..x_max} in turn, with no pruning."""
    limit = coloring.M // 2 if x_max is None else x_max
    colors = coloring.colors
    for X in combinations(range(1, limit + 1), k):
        sums = {a + b for a, b in combinations(X, 2)} | {2 * a for a in X}
        if len({colors[s - 1] for s in sums}) == 1:
            return X
    return None


def unchained_scan(k, r, M_max, budget=None, x_max=None):
    """(verdict, witness, nodes) for M = 1..M_max, searching every task of
    _task_prefixes from its own start, with no chain from the row below:
    the first task in task order that does not finish exhausted decides the
    row, ESCAPABLE by its witness or UNDECIDED by its budget cutoff."""
    rows = []
    for M in range(1, M_max + 1):
        x_limit = None if x_max is None else min(x_max, M // 2)
        verdict, witness, nodes = FORCED, None, 0
        for prefix in _task_prefixes(r, M):
            result = find_bad_coloring(k, r, M, budget=budget, x_max=x_limit, forced_prefix=prefix)
            nodes += result.nodes
            if not result.exhausted:
                verdict = ESCAPABLE if result.found else UNDECIDED
                witness = result.coloring
                break
        rows.append((verdict, witness, nodes))
    return rows


# ---------------------------------------------------------------------------
# colorings


def test_nat_coloring_basics():
    c = NatColoring(r=2, colors=(0, 1, 1))
    assert c.M == 3
    assert c.colors == (0, 1, 1)


def test_nat_coloring_validation():
    with pytest.raises(ValueError):
        NatColoring(r=0, colors=())
    with pytest.raises(ValueError):
        NatColoring(r=2, colors=(0, 2))


def test_nat_coloring_serialize_round_trip():
    c = NatColoring(r=3, colors=(0, 2, 1, 0))
    text = c.serialize()
    assert text == "1:0\n2:2\n3:1\n4:0\n"
    assert NatColoring.parse(text, r=3) == c
    assert NatColoring.parse("\n 1:0 \n\n2:1\n", r=2) == NatColoring(r=2, colors=(0, 1))


def test_nat_coloring_parse_requires_contiguous_positions():
    with pytest.raises(ValueError):
        NatColoring.parse("2:0\n3:1\n", r=2)


# ---------------------------------------------------------------------------
# monochromatic sumsets


def test_has_mono_sumset_constant():
    c = NatColoring(r=2, colors=(0,) * 8)
    assert has_mono_sumset(c, 2) == (1, 2)
    assert has_mono_sumset(c, 1) == (1,)


def test_has_mono_sumset_parity():
    c = NatColoring(r=2, colors=tuple(i % 2 for i in range(1, 9)))
    # {1, 3} sums to {2, 4, 6}, all even and therefore one color
    assert has_mono_sumset(c, 2) == (1, 3)
    assert all_pair_sums_one_color(c.colors, (1, 3))


def test_has_mono_sumset_none_for_bad_coloring():
    c = NatColoring(r=2, colors=WITNESS_M4)
    assert has_mono_sumset(c, 2) is None


def test_has_mono_sumset_x_range_convention():
    c = NatColoring(r=2, colors=(0,) * 10)
    assert has_mono_sumset(c, 2, x_max=5) == (1, 2)
    with pytest.raises(ValueError):
        has_mono_sumset(c, 2, x_max=6)  # 6 + 6 lands outside 1..10
    with pytest.raises(ValueError):
        has_mono_sumset(c, 0)


def test_has_mono_sumset_vacuous_when_k_exceeds_range():
    c = NatColoring(r=2, colors=(0,) * 6)
    assert has_mono_sumset(c, 5) is None  # only {1, 2, 3} available


@functools.cache
def least_bad_colorings(r):
    """The least bad colorings of {1..M}, M = 1..30, for k = 3 (r = 2) or
    k = 2 (r = 3): colorings whose monochromatic X are rare."""
    return [rec.witness.colors for rec in threshold_scan({2: 3, 3: 2}[r], r, 30)]


@st.composite
def colorings(draw, r, M):
    """A random coloring of {1..M}, or one a few flips away from a least
    bad coloring, where the search must go deep to find X or prove none."""
    if r == 1 or M == 0 or draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(0, r - 1), min_size=M, max_size=M)))
    colors = list(least_bad_colorings(r)[M - 1])
    for i in draw(st.lists(st.integers(0, M - 1), max_size=2)):
        colors[i] = (colors[i] + 1) % r
    return tuple(colors)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_has_mono_sumset_matches_the_plain_enumerator(data):
    r = data.draw(st.integers(1, 3), label="r")
    k = data.draw(st.integers(1, 4), label="k")
    M = data.draw(st.integers(0, 30), label="M")
    coloring = NatColoring(r, data.draw(colorings(r, M), label="colors"))
    # x_max up to M // 2, so k runs past the range for small M or x_max
    x_max = data.draw(st.none() | st.integers(0, M // 2), label="x_max")
    assert has_mono_sumset(coloring, k, x_max=x_max) == reference_mono_sumset(coloring, k, x_max)


# ---------------------------------------------------------------------------
# the depth-first hunt


def test_find_bad_coloring_known_witnesses():
    for M, expected in ((4, WITNESS_M4), (10, WITNESS_M10), (12, WITNESS_M12), (13, WITNESS_M13)):
        result = find_bad_coloring(2, 2, M)
        assert result.found and not result.exhausted
        assert result.coloring.colors == expected
        assert has_mono_sumset(result.coloring, 2) is None


def test_find_bad_coloring_exhausts_at_least_forced_m():
    result = find_bad_coloring(2, 2, LEAST_FORCED_M)
    assert not result.found
    assert result.exhausted
    assert result.nodes > 0


def test_find_bad_coloring_budget_cutoff():
    result = find_bad_coloring(2, 2, LEAST_FORCED_M, budget=10)
    assert not result.found
    assert not result.exhausted
    assert result.nodes == 11  # the node that crossed the budget is counted


def test_find_bad_coloring_forced_prefix_and_resume_agree():
    by_prefix = find_bad_coloring(2, 2, 4, forced_prefix=(0, 1))
    by_resume = find_bad_coloring(2, 2, 4, resume_from=(0, 1))
    assert by_prefix.coloring.colors == (0, 1, 0, 0)
    assert by_resume.coloring.colors == (0, 1, 0, 0)


def test_find_bad_coloring_validation():
    with pytest.raises(ValueError):
        find_bad_coloring(0, 2, 4)
    with pytest.raises(ValueError):
        find_bad_coloring(2, 2, 2, forced_prefix=(0, 0, 0))
    with pytest.raises(ValueError):
        find_bad_coloring(2, 2, 4, forced_prefix=(0, 5))
    with pytest.raises(ValueError):
        find_bad_coloring(2, 2, 4, forced_prefix=(0, 1), resume_from=(0, 0, 1))
    with pytest.raises(ValueError, match="out of range"):
        find_bad_coloring(2, 2, 4, resume_from=(0, -1))
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        find_bad_coloring(2, 2, 4, budget=-1)
    # Budget 0 stays valid: the first node already crosses it.
    assert not find_bad_coloring(2, 2, 4, budget=0).exhausted


def test_find_bad_coloring_checkpoint_callback():
    calls = []
    find_bad_coloring(
        2, 2, 14, checkpoint=lambda prefix, nodes: calls.append((prefix, nodes)), checkpoint_interval=10
    )
    assert calls
    assert calls[0][1] == 10
    assert all(a[1] < b[1] for a, b in zip(calls, calls[1:]))
    for prefix, _ in calls:
        assert all(c in (0, 1) for c in prefix)
        assert prefix[0] == 0  # color of 1 is pinned


def brute_lex_least(k, r, M, prefix=(), x_limit=None):
    """Lex-least coloring of {1..M} that starts with prefix and has no
    monochromatic k-sumset with X inside {1..x_limit} (default M // 2), by
    brute force over every coloring."""
    x_limit = M // 2 if x_limit is None else x_limit
    for tail in product(range(r), repeat=M - len(prefix)):  # ascending
        colors = tuple(prefix) + tail
        if not any(
            all_pair_sums_one_color(colors, X)
            for X in combinations(range(1, x_limit + 1), k)
        ):
            return colors
    return None


def test_small_universes_match_independent_enumeration():
    """Brute force over every coloring, mono check written from scratch:
    no pruning, no symmetry breaking."""
    for k, r, M_max in ((2, 2, 10), (2, 3, 9), (3, 2, 12), (1, 1, 4), (1, 2, 4), (2, 1, 6)):
        for M in range(1, M_max + 1):
            brute = brute_lex_least(k, r, M)
            result = find_bad_coloring(k, r, M)
            if brute is None:
                assert result.exhausted and not result.found
            else:
                assert result.coloring.colors == brute


def test_non_canonical_forced_prefix_matches_independent_enumeration():
    # (0, 2) skips color 1, so the free positions after it may still use 1
    for M in range(2, 10):
        result = find_bad_coloring(2, 3, M, forced_prefix=(0, 2))
        brute = brute_lex_least(2, 3, M, prefix=(0, 2))
        assert brute is not None
        assert result.coloring.colors == brute


def test_find_bad_coloring_depth_is_not_bounded_by_the_call_stack():
    # far past CPython's default recursion limit of 1000
    result = find_bad_coloring(2, 2, 5000, x_max=1)
    assert result.coloring.colors == (0,) * 5000
    assert result.nodes == 5000


def test_resume_from_a_mid_tree_prefix_matches_a_full_run():
    full = find_bad_coloring(2, 3, 40)
    prefixes = []
    find_bad_coloring(
        2, 3, 40, checkpoint=lambda prefix, nodes: prefixes.append(prefix), checkpoint_interval=500
    )
    assert len(prefixes) >= 3
    assert all(in_first_use_order(prefix) for prefix in prefixes)
    for prefix in prefixes:
        resumed = find_bad_coloring(2, 3, 40, resume_from=prefix)
        assert resumed.coloring == full.coloring
        assert resumed.nodes < full.nodes


# ---------------------------------------------------------------------------
# records and task decomposition


def test_threshold_record_validation():
    with pytest.raises(ValueError):
        ThresholdRecord(k=2, r=2, M=3, verdict="MAYBE", witness=None, nodes=0)
    with pytest.raises(ValueError):
        ThresholdRecord(k=2, r=2, M=3, verdict=ESCAPABLE, witness=None, nodes=0)
    with pytest.raises(ValueError):
        ThresholdRecord(
            k=2, r=2, M=3, verdict=FORCED, witness=NatColoring(2, (0, 0, 0)), nodes=0
        )


def test_threshold_record_equality_ignores_node_counts():
    a = ThresholdRecord(k=2, r=2, M=14, verdict=FORCED, witness=None, nodes=100)
    b = ThresholdRecord(k=2, r=2, M=14, verdict=FORCED, witness=None, nodes=999)
    assert a == b


def test_task_prefixes_fixed_decomposition():
    assert _task_prefixes(2, 1) == [(0,)]
    assert _task_prefixes(2, 2) == [(0, 0), (0, 1)]
    assert _task_prefixes(2, 5) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert _task_prefixes(3, 9) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    assert all(in_first_use_order(prefix) for prefix in _task_prefixes(3, 9))
    # every first-use-order prefix of length 3 is a task, so the tasks cover
    # the symmetry-reduced coloring space
    assert _task_prefixes(3, 9) == [
        prefix for prefix in product(range(3), repeat=3) if in_first_use_order(prefix)
    ]


# ---------------------------------------------------------------------------
# the scan


def test_threshold_scan_pair_sumsets():
    records = threshold_scan(2, 2, LEAST_FORCED_M)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 13 + [FORCED]
    assert all(rec.M == i for i, rec in enumerate(records, start=1))
    by_m = {rec.M: rec for rec in records}
    assert by_m[4].witness.colors == WITNESS_M4
    assert by_m[10].witness.colors == WITNESS_M10
    assert by_m[13].witness.colors == WITNESS_M13
    for rec in records:
        if rec.verdict == ESCAPABLE:
            assert has_mono_sumset(rec.witness, 2) is None


def test_threshold_scan_triple_sumsets_force_at_46():
    # The least FORCED universe for (k, r) = (3, 2); each witness below it
    # is re-checked by the exhaustive has_mono_sumset scan.
    records = threshold_scan(3, 2, 46)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 45 + [FORCED]
    assert all(rec.M == i for i, rec in enumerate(records, start=1))
    for rec in records[:-1]:
        assert has_mono_sumset(rec.witness, 3) is None


@pytest.mark.slow
def test_threshold_scan_pair_sumsets_in_three_colors_force_at_50():
    # The least FORCED universe for (k, r) = (2, 3): about 9.8M DFS nodes
    # at M = 50, so it runs only under -m slow.
    records = threshold_scan(2, 3, 50)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 49 + [FORCED]
    assert all(rec.M == i for i, rec in enumerate(records, start=1))
    for rec in records[:-1]:
        assert has_mono_sumset(rec.witness, 2) is None


def test_threshold_scan_singletons():
    records = threshold_scan(1, 2, 4)
    assert [rec.verdict for rec in records] == [ESCAPABLE, FORCED, FORCED, FORCED]
    assert records[0].witness.colors == (0,)
    # with one color, X = {1} is monochromatic as soon as 2 is colored
    records = threshold_scan(1, 1, 3)
    assert [rec.verdict for rec in records] == [ESCAPABLE, FORCED, FORCED]
    assert records[0].witness.colors == (0,)
    # and with no X at all, every coloring is bad
    records = threshold_scan(1, 1, 3, x_max=0)
    assert [rec.witness.colors for rec in records] == [(0,), (0, 0), (0, 0, 0)]


def test_threshold_scan_checks_each_witness_once(monkeypatch):
    # The leaf re-check inside find_bad_coloring is the only scan a fresh
    # witness gets: one has_mono_sumset call per ESCAPABLE row.
    calls = []
    real = sumsetlab.search.has_mono_sumset

    def counting(coloring, k, x_max=None):
        calls.append(coloring.colors)
        return real(coloring, k, x_max=x_max)

    monkeypatch.setattr(sumsetlab.search, "has_mono_sumset", counting)
    records = threshold_scan(2, 2, 10)
    witnesses = [rec.witness.colors for rec in records if rec.verdict == ESCAPABLE]
    assert len(witnesses) == 10
    assert calls == witnesses


@pytest.mark.parametrize(
    "k, r, M_max, x_max, workers",
    [
        (2, 2, 20, None, 1),
        (3, 2, 30, None, 1),
        (2, 3, 30, None, 1),
        (2, 2, 20, 3, 1),
        (3, 2, 30, 3, 1),
        (2, 3, 30, 3, 1),
        (2, 2, 20, None, 2),
        (3, 2, 30, None, 2),
        (2, 3, 30, None, 2),
    ],
)
def test_chain_start_matches_a_scan_of_every_task(k, r, M_max, x_max, workers):
    # Each M starts at the previous row's witness: the same verdicts and
    # witnesses as searching every task from its start, in no more nodes.
    records = threshold_scan(k, r, M_max, x_max=x_max, workers=workers)
    reference = unchained_scan(k, r, M_max, x_max=x_max)
    assert [(rec.verdict, rec.witness) for rec in records] == [row[:2] for row in reference]
    assert all(rec.nodes <= row[2] for rec, row in zip(records, reference))


def test_chain_start_cuts_the_nodes_of_the_pair_sumsets_in_three_colors():
    # 16,283 nodes for M <= 40 when every task searches from its start
    records = threshold_scan(2, 3, 40)
    reference = unchained_scan(2, 3, 40)
    assert sum(rec.nodes for rec in records) * 4 < sum(row[2] for row in reference)


@pytest.mark.parametrize(
    "k, r, M_max, budget",
    [
        (2, 2, 20, 17),
        (3, 2, 34, 33),
        (2, 3, 30, 20),
        (3, 2, 40, 50),
        (2, 3, 40, 40),
        (2, 2, 16, 5),
    ],
)
def test_chain_start_under_a_budget_decides_every_row_the_reference_decides(k, r, M_max, budget):
    reference = unchained_scan(k, r, M_max, budget=budget)
    unbudgeted = threshold_scan(k, r, M_max)
    for workers in (1, 2):
        records = threshold_scan(k, r, M_max, budget=budget, workers=workers)
        for rec, (verdict, _, nodes), full in zip(records, reference, unbudgeted):
            assert rec.nodes <= nodes
            if verdict != UNDECIDED:
                assert rec.verdict == verdict
            # Every witness is the least one, so a budget never changes it.
            if rec.witness is not None:
                assert rec.witness == full.witness
        # the rows decided here that the reference leaves UNDECIDED
        gained = [rec.M for rec, row in zip(records, reference) if rec.verdict != row[0]]
        if (k, r, budget) == (2, 2, 17):
            # Without the chain, the budget of 17 leaves M = 13 UNDECIDED.
            assert gained == [13]
            assert records[12].verdict == ESCAPABLE
        else:
            assert gained == []
        if (k, r, budget) == (3, 2, 33):
            # Task (0, 0, 0) is cut off from M = 30 on, so these rows are
            # UNDECIDED although task (0, 1, 0) holds a bad coloring, and
            # M = 31 searches every task from its start.
            assert [rec.M for rec in records if rec.verdict == UNDECIDED] == [30, 31, 32, 33, 34]
            assert records[30].nodes == reference[30][2]


def test_threshold_scan_worker_count_is_invisible():
    for k, r, M_max in ((2, 2, LEAST_FORCED_M), (2, 3, 20)):
        sequential = threshold_scan(k, r, M_max)
        pooled = threshold_scan(k, r, M_max, workers=2)
        assert pooled == sequential
        assert [rec.witness for rec in pooled] == [rec.witness for rec in sequential]


def test_parallel_results_stop_kills_the_running_tasks():
    # (k, r, M, budget, x_max, prefix, resume_from, checkpoint interval)
    quick = (2, 2, 4, None, None, (0,), None, 1)
    # tens of seconds of search, unless stopping the schedule kills it
    slow = (3, 3, 200, 400_000, None, (0,), None, 1)
    results = _parallel_results([quick, slow], workers=2)
    start = time.monotonic()
    assert next(results) == find_bad_coloring(2, 2, 4, forced_prefix=(0,))
    results.close()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_parallel_results_raise_a_task_error():
    with pytest.raises(ValueError):
        tasks = [(2, 2, 4, None, None, (0,), None, 1), (0, 2, 4, None, None, (0,), None, 1)]
        list(_parallel_results(tasks, 2))
    assert multiprocessing.active_children() == []


def test_threshold_scan_budget_gives_undecided():
    records = threshold_scan(2, 2, 6, budget=5)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 5 + [UNDECIDED]
    assert records[-1].witness is None


def test_threshold_scan_x_max_zero_is_vacuous():
    records = threshold_scan(2, 2, 3, x_max=0)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 3
    assert [rec.witness.colors for rec in records] == [(0,), (0, 0), (0, 0, 0)]


def test_threshold_scan_caps_x_max_at_half_of_each_universe(tmp_path):
    records = threshold_scan(2, 2, 16, x_max=3)
    assert [rec.M for rec in records] == list(range(1, 17))
    for rec in records:
        x_limit = min(3, rec.M // 2)
        assert rec.verdict == ESCAPABLE
        assert not any(
            all_pair_sums_one_color(rec.witness.colors, X)
            for X in combinations(range(1, x_limit + 1), 2)
        )
        if rec.M <= 10:
            assert rec.witness.colors == brute_lex_least(2, 2, rec.M, x_limit=x_limit)
    # the checkpoint loader re-checks stored witnesses under the same cap
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 8, x_max=3, checkpoint_path=path)
    assert threshold_scan(2, 2, 16, x_max=3, checkpoint_path=path) == records


def test_threshold_scan_validation():
    with pytest.raises(ValueError):
        threshold_scan(2, 2, 4, workers=0)
    for interval in (0, -3):
        with pytest.raises(ValueError, match="checkpoint interval of at least one node"):
            threshold_scan(2, 2, 4, checkpoint_interval=interval)


@pytest.mark.parametrize(
    "args, budget, message",
    [
        ((2, 2, -1), None, "need k >= 1, r >= 1, M >= 0"),
        ((0, 2, 0), None, "need k >= 1, r >= 1, M >= 0"),
        ((2, 0, 3), None, "need k >= 1, r >= 1, M >= 0"),
        ((2, 2, 4), -1, "budget must be nonnegative, got -1"),
    ],
)
def test_threshold_scan_refuses_bad_arguments_up_front(tmp_path, args, budget, message):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 5, budget=budget if budget is None else 50, checkpoint_path=path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(*args, budget=budget, checkpoint_path=path)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(*args, budget=budget, checkpoint_path=tmp_path / "fresh.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


def test_threshold_scan_budget_zero_leaves_every_row_undecided():
    records = threshold_scan(2, 2, 3, budget=0)
    assert [rec.verdict for rec in records] == [UNDECIDED] * 3


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_extends_and_truncates(tmp_path):
    path = tmp_path / "scan.json"
    first = threshold_scan(2, 2, 6, checkpoint_path=path)
    extended = threshold_scan(2, 2, 9, checkpoint_path=path)
    assert extended[:6] == first
    truncated = threshold_scan(2, 2, 4, checkpoint_path=path)
    assert truncated == extended[:4]
    # the shorter view must not discard the longer scan's records
    again = threshold_scan(2, 2, 9, checkpoint_path=path)
    assert again == extended


def test_checkpoint_rejects_other_config(tmp_path):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 4, checkpoint_path=path)
    with pytest.raises(ValueError, match="was written for config"):
        threshold_scan(1, 2, 4, checkpoint_path=path)
    with pytest.raises(ValueError, match="was written for config"):
        threshold_scan(2, 2, 4, budget=10, checkpoint_path=path)


def test_checkpoint_rejects_other_task_list(tmp_path):
    # Written when r = 3 split M = 8 into all nine prefixes (0, a, b): a log
    # of nine entries cannot be matched to today's five tasks.
    path = tmp_path / "scan.json"
    threshold_scan(2, 3, 7, checkpoint_path=path)
    state = json.loads(path.read_text())
    state["in_flight"] = {"M": 8, "log": [True] * 5 + [[0, 1, 2, 0]] + [None] * 3}
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="the M=8 log has 9 entries for 5 tasks"):
        threshold_scan(2, 3, 8, checkpoint_path=path)


def test_checkpoint_rejects_a_bad_stored_witness(tmp_path):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 6, checkpoint_path=path)
    state = json.loads(path.read_text())
    assert state["records"][5]["M"] == 6
    state["records"][5]["witness"] = [0] * 6  # X = (1, 2) is monochromatic
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match=r"M=6 witness makes X=\(1, 2\) monochromatic"):
        threshold_scan(2, 2, 8, checkpoint_path=path)
    state["records"][5]["witness"] = [0, 0, 0, 1, 0]
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="M=6 witness colors 5 positions"):
        threshold_scan(2, 2, 8, checkpoint_path=path)


def test_resume_starts_at_a_stored_witness_marked_least(tmp_path):
    full = threshold_scan(2, 3, 40)
    reference = unchained_scan(2, 3, 40)
    assert full[-1].nodes < reference[-1][2]
    path = tmp_path / "scan.json"
    threshold_scan(2, 3, 39, checkpoint_path=path)
    state = json.loads(path.read_text())
    assert all(row["least"] for row in state["records"])
    resumed = threshold_scan(2, 3, 40, checkpoint_path=path)
    assert resumed == full
    assert resumed[-1].nodes == full[-1].nodes


def test_an_unbudgeted_checkpoint_of_an_earlier_writer_resumes(tmp_path):
    # Written when a budgeted witness could still be marked least=false: a
    # crash inside M = 12 of the (2, 2) scan, checkpointing every 5 nodes.
    # Without a budget every witness was the least one, so the file loads,
    # resumes to the same table, and is then written as a run without the
    # crash writes it, but for the node count of M = 12: a resumed row does
    # not count the tasks its log marks finished.
    colors = [0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0]
    records = [
        {"M": M, "least": True, "nodes": M, "verdict": ESCAPABLE, "witness": colors[:M]}
        for M in range(1, 12)
    ]
    running = {"nodes": 10, "prefix": [0, 0, 1, 0, 1]}
    state = {
        "config": {"budget": None, "k": 2, "r": 2, "x_max": None},
        "in_flight": {"M": 12, "log": [True, running, None, None]},
        "records": records,
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    resumed = threshold_scan(2, 2, 14, checkpoint_path=path, checkpoint_interval=5)
    fresh = tmp_path / "fresh.json"
    assert resumed == threshold_scan(2, 2, 14, checkpoint_path=fresh, checkpoint_interval=5)
    assert [rec.witness for rec in resumed[:11]] == [
        NatColoring(2, tuple(colors[:M])) for M in range(1, 12)
    ]
    written, expected = json.loads(path.read_text()), json.loads(fresh.read_text())
    assert (written["records"][11]["nodes"], expected["records"][11]["nodes"]) == (17, 32)
    written["records"][11]["nodes"] = 32
    assert written == expected


def test_resume_takes_the_larger_of_a_logged_prefix_and_the_chain_start(tmp_path):
    full = threshold_scan(2, 2, 14)
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 13, checkpoint_path=path)
    state = json.loads(path.read_text())
    # Logged by a run that did not start at the M = 13 witness: task
    # (0, 0, 1) at its own prefix, which sorts below that witness.
    state["in_flight"] = {"M": 14, "log": [True, {"prefix": [0, 0, 1], "nodes": 3}, None, None]}
    path.write_text(json.dumps(state))
    resumed = threshold_scan(2, 2, 14, checkpoint_path=path)
    assert resumed == full
    assert resumed[-1].nodes == full[-1].nodes


def test_checkpoint_rejects_a_bad_least_flag(tmp_path):
    # A witness row must say least=true: rows that earlier writers stored
    # with least=false, or with no key at all, may hold a witness that is
    # not the least one, and they are refused by name.
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 14, checkpoint_path=path)
    state = json.loads(path.read_text())
    advice = "but exactly the witness rows are marked least; truncate records to the"
    for value in (False, 1, "true", None, "missing"):
        row = dict(state["records"][12], least=value)
        if value == "missing":
            del row["least"]
        records = state["records"][:12] + [row] + state["records"][13:]
        path.write_text(json.dumps(dict(state, records=records)))
        shown = False if value == "missing" else value
        message = f"checkpoint {path}: row 13 has least={shown!r} with a witness, {advice} 12"
        with pytest.raises(ValueError, match=re.escape(message)):
            threshold_scan(2, 2, 14, checkpoint_path=path)
    state["records"][13]["least"] = True  # the FORCED row
    path.write_text(json.dumps(state))
    message = f"checkpoint {path}: row 14 has least=True without a witness, {advice} 13"
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(2, 2, 14, checkpoint_path=path)


def test_checkpoint_rejects_a_least_witness_out_of_first_use_order(tmp_path):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 12, checkpoint_path=path)
    state = json.loads(path.read_text())
    row = state["records"][11]
    assert (row["M"], row["least"], tuple(row["witness"])) == (12, True, WITNESS_M12)
    # With its two colors swapped the witness is still bad, so the re-check
    # on load passes, but it no longer starts with color 0.  Trusted as the
    # least, it made the M = 13 search skip every task and report FORCED.
    row["witness"] = [1 - c for c in row["witness"]]
    assert not in_first_use_order(row["witness"])
    path.write_text(json.dumps(state))
    message = (
        f"checkpoint {path}: the M=12 witness is marked least but its colors "
        "are not in first-use order"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(2, 2, 13, checkpoint_path=path)
    # Not marked least, the same witness is refused all the same.
    row["least"] = False
    path.write_text(json.dumps(state))
    message = f"checkpoint {path}: row 12 has least=False with a witness"
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(2, 2, 13, checkpoint_path=path)


def test_checkpoint_rejects_a_missing_row(tmp_path):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 5, checkpoint_path=path)
    state = json.loads(path.read_text())
    del state["records"][2]  # the M = 3 row
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="row 3 is for M=4, not M=3"):
        threshold_scan(2, 2, 6, checkpoint_path=path)


def test_checkpoint_rejects_a_stored_forced_row_below_an_escapable_one(tmp_path):
    path = tmp_path / "scan.json"
    threshold_scan(2, 2, 5, checkpoint_path=path)
    state = json.loads(path.read_text())
    state["records"][1].update(verdict=FORCED, witness=None, least=False)
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="M=3 is ESCAPABLE but M=2 is FORCED"):
        threshold_scan(2, 2, 5, checkpoint_path=path)


def crash_at_write(path, monkeypatch, at, workers=1, M_max=12, inside=None, budget=None) -> dict:
    """Run the (2, 2) scan to M_max with a checkpoint every 5 nodes, crash at
    the at-th checkpoint write (counting only the writes made while M = inside
    is in flight, when it is given), and return the checkpoint left behind."""
    real_write = _ScanCheckpoint.write
    writes = {"n": 0}

    def crash_on_write(self):
        in_flight = self.state["in_flight"]
        if inside is None or (in_flight is not None and in_flight["M"] == inside):
            writes["n"] += 1
            if writes["n"] == at:
                raise RuntimeError("simulated crash")
        real_write(self)

    monkeypatch.setattr(_ScanCheckpoint, "write", crash_on_write)
    with pytest.raises(RuntimeError, match="simulated crash"):
        threshold_scan(
            2, 2, M_max, budget=budget, workers=workers, checkpoint_path=path, checkpoint_interval=5
        )
    monkeypatch.setattr(_ScanCheckpoint, "write", real_write)
    return json.loads(path.read_text())


def test_checkpoint_crash_resume(tmp_path, monkeypatch):
    baseline = threshold_scan(2, 2, 12)
    path = tmp_path / "scan.json"
    snapshot = crash_at_write(path, monkeypatch, at=26)

    # The crash lands in the second of the four tasks of M = 12, after the
    # first one was exhausted, so resuming must skip a finished task and
    # fast-forward inside the next one.
    assert len(snapshot["records"]) == 11
    assert _task_prefixes(2, 12) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    running = {"prefix": [0, 0, 1, 0, 1], "nodes": 10}
    assert snapshot["in_flight"] == {"M": 12, "log": [True, running, None, None]}

    resumed = threshold_scan(2, 2, 12, checkpoint_path=path, checkpoint_interval=5)
    assert resumed == baseline
    assert [rec.witness for rec in resumed] == [rec.witness for rec in baseline]


def test_budget_survives_kills_and_resumes(tmp_path, monkeypatch):
    # Task (0, 1, 0) of M = 14 needs 34 nodes, so a budget of 30 leaves
    # M = 14 UNDECIDED; a resumed task that got its whole budget back would
    # finish it and report FORCED.  M = 14 starts at the M = 13 witness, so
    # task (0, 0, 0) is skipped and (0, 0, 1) logs its 5 checkpoints first.
    baseline = threshold_scan(2, 2, 14, budget=30, checkpoint_interval=5)
    assert baseline[-1].verdict == UNDECIDED
    path = tmp_path / "scan.json"
    first = crash_at_write(path, monkeypatch, at=8, M_max=14, inside=14, budget=30)
    second = crash_at_write(path, monkeypatch, at=5, M_max=14, inside=14, budget=30)
    for snapshot in (first, second):
        assert snapshot["in_flight"]["log"][:2] == [True, True]
        running = [entry for entry in snapshot["in_flight"]["log"] if isinstance(entry, dict)]
        assert [entry["nodes"] > len(entry["prefix"]) for entry in running] == [True]
        # both crashes land inside the task that the budget cuts off
        assert running[0]["prefix"][:3] == [0, 1, 0]
    assert second["in_flight"] != first["in_flight"]

    resumed = threshold_scan(2, 2, 14, budget=30, checkpoint_path=path, checkpoint_interval=5)
    assert resumed == baseline
    assert [rec.witness for rec in resumed] == [rec.witness for rec in baseline]

    # A running entry may not claim more nodes than the budget allows.
    log = second["in_flight"]["log"]
    n = next(i for i, entry in enumerate(log) if isinstance(entry, dict))
    log[n] = dict(log[n], nodes=31)
    path.write_text(json.dumps(second))
    message = f"checkpoint {path}: the M=14 log has {log[n]!r} for task"
    with pytest.raises(ValueError, match=re.escape(message)):
        threshold_scan(2, 2, 14, budget=30, checkpoint_path=path, checkpoint_interval=5)


# M = 12 is ESCAPABLE through its second task, so the crash may leave the
# first one running or finished; M = 14 is FORCED, and it starts at the
# M = 13 witness, which skips task (0, 0, 0), so its other three tasks log
# 5 + 6 + 3 checkpoints at 5 nodes each.  Which entries a two-worker crash
# leaves running or finished depends on the race between the children.
@pytest.mark.parametrize("inside, at", [(12, 4), (14, 2), (14, 9), (14, 14)])
def test_two_worker_crash_resumes_under_either_worker_count(tmp_path, monkeypatch, inside, at):
    baseline = threshold_scan(2, 2, 14)
    path = tmp_path / "scan.json"
    snapshot = crash_at_write(path, monkeypatch, at=at, workers=2, M_max=14, inside=inside)
    assert multiprocessing.active_children() == []
    assert len(snapshot["records"]) == inside - 1
    assert snapshot["in_flight"]["M"] == inside
    for workers in (2, 1):
        path.write_text(json.dumps(snapshot))
        resumed = threshold_scan(
            2, 2, 14, workers=workers, checkpoint_path=path, checkpoint_interval=5
        )
        assert resumed == baseline
        assert [rec.witness for rec in resumed] == [rec.witness for rec in baseline]
        assert multiprocessing.active_children() == []


def test_checkpoint_rejects_a_log_the_writer_never_stores(tmp_path, monkeypatch):
    # The writer logs [True, {"prefix": [0, 0, 1, 0, 1], "nodes": 10}, None,
    # None] for M = 12, whose tasks are (0, 0, 0), (0, 0, 1), (0, 1, 0) and
    # (0, 1, 1).
    path = tmp_path / "scan.json"
    snapshot = crash_at_write(path, monkeypatch, at=26)
    assert len(snapshot["records"]) == 11

    def log(*entries, M=12):
        return {"M": M, "log": list(entries)}

    def running(prefix, nodes=10):
        return {"prefix": prefix, "nodes": nodes}

    def bad(entry):
        return (log(True, entry, None, None), f"the M=12 log has {entry!r} for task [0, 0, 1]")

    too_long = [0, 0, 1] + [0] * 10
    tampered = [
        # wrong length
        (log(True, None, None), "the M=12 log has 3 entries for 4 tasks"),
        (log(*[True] * 5), "the M=12 log has 5 entries for 4 tasks"),
        # a prefix outside its task
        bad(running([0, 1, 0, 0])),
        (
            log(running([0, 0], 2), running([0, 0, 1, 2]), None, None),
            f"the M=12 log has {running([0, 0, 1, 2])!r} for task [0, 0, 1]",
        ),
        bad(running(too_long, 13)),
        # a wrong entry type; a task that is not exhausted decides its row,
        # so false, which logs once stored for a budget cutoff, is one too
        bad("0,0,1"),
        bad(1),
        bad(False),
        bad(running([0, 0, True])),
        bad(running("0,0,1")),
        # a node count that is missing, of another type, or below the prefix
        bad({"prefix": [0, 0, 1, 0, 1]}),
        bad(dict(running([0, 0, 1, 0, 1]), spent=0)),
        bad(running([0, 0, 1, 0, 1], nodes="10")),
        bad(running([0, 0, 1, 0, 1], nodes=True)),
        bad(running([0, 0, 1, 0, 1], nodes=4)),
        # the bare prefix that logs stored before they kept node counts
        (
            log(True, [0, 0, 1, 0, 1], None, None),
            "the M=12 log has a bare prefix [0, 0, 1, 0, 1] for task [0, 0, 1]",
        ),
        # an in-flight M other than rows + 1
        (log(None, None, None, None, M=11), "M=11 is in flight after 11 rows"),
        (log(None, None, None, None, M=13), "M=13 is in flight after 11 rows"),
    ]
    for in_flight, message in tampered:
        path.write_text(json.dumps(dict(snapshot, in_flight=in_flight)))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {message}")):
            threshold_scan(2, 2, 12, checkpoint_path=path, checkpoint_interval=5)

    # The single in-flight cursor that earlier versions stored.
    cursor = {
        "M": 12,
        "tasks": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]],
        "task": 1,
        "prefix": [0, 0, 1, 0, 1],
        "nodes": 125,
        "tasks_done": [{"task": 0, "exhausted": True, "nodes": 15}],
    }
    path.write_text(json.dumps(dict(snapshot, in_flight=cursor)))
    message = re.escape(f"checkpoint {path} is malformed: KeyError('log')")
    with pytest.raises(ValueError, match=message):
        threshold_scan(2, 2, 12, checkpoint_path=path, checkpoint_interval=5)


def test_monotonicity_guard_aborts(tmp_path):
    # Plant a FORCED verdict below a genuinely escapable universe; the scan
    # must refuse to continue rather than emit a non-monotone table, and
    # blame the file it read the FORCED row from.
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps(
            {
                "config": {"k": 2, "r": 2, "budget": None, "x_max": None},
                "records": [{"M": 1, "verdict": FORCED, "witness": None, "nodes": 1}],
                "in_flight": None,
            }
        )
    )
    with pytest.raises(ValueError, match="monotonicity violated: its row M=1 is FORCED"):
        threshold_scan(2, 2, 3, checkpoint_path=path)


def test_monotonicity_guard_blames_the_search_for_its_own_rows(monkeypatch):
    # Both rows come from this run, so a violation is a fault of the code.
    verdicts = {1: FORCED, 2: ESCAPABLE}

    def fake_scan_one(k, r, M, *args, **kwargs):
        witness = NatColoring(r=r, colors=(0,) * M) if verdicts[M] == ESCAPABLE else None
        return ThresholdRecord(k=k, r=r, M=M, verdict=verdicts[M], witness=witness, nodes=1)

    monkeypatch.setattr(sumsetlab.search, "_scan_one", fake_scan_one)
    with pytest.raises(RuntimeError, match="monotonicity violated: FORCED below M=2"):
        threshold_scan(2, 2, 2)


# ---------------------------------------------------------------------------
# output files


def test_write_csv_table_and_witness_files(tmp_path):
    records = threshold_scan(2, 2, 5)
    out = tmp_path / "thresholds.csv"
    written = write_csv(records, out, header_comments=["k=2", "r=2"])
    assert written[0] == out
    assert len(written) == 6  # table plus one witness file per ESCAPABLE M
    lines = out.read_text().splitlines()
    assert lines[:3] == ["# k=2", "# r=2", "k,r,M,verdict,witness"]
    assert lines[3] == "2,2,1,ESCAPABLE,thresholds-bad-M1.txt"
    assert (tmp_path / "thresholds-bad-M1.txt").read_text() == "1:0\n"
    witness4 = (tmp_path / "thresholds-bad-M4.txt").read_text()
    assert NatColoring.parse(witness4, r=2).colors == WITNESS_M4


def test_write_csv_forced_rows_have_no_witness_file(tmp_path):
    record = ThresholdRecord(k=2, r=2, M=14, verdict=FORCED, witness=None, nodes=7)
    out = tmp_path / "t.csv"
    written = write_csv([record], out)
    assert written == [out]
    assert out.read_text() == "k,r,M,verdict,witness\n2,2,14,FORCED,\n"


def test_write_text_atomic_leaves_only_the_target(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "old\n")
    # After the rename there is no temp file left to remove.
    monkeypatch.setattr(Path, "unlink", lambda *args, **kwargs: pytest.fail("unlink called"))
    write_text_atomic(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_text_atomic_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "half written \ud800")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_importing_the_package_does_not_load_multiprocessing():
    # Only a search with more than one worker needs it.
    code = "import sys, sumsetlab, sumsetlab.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
