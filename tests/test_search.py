"""Tests for the bad-coloring search and the threshold scanner.

The thresholds asserted here were first computed by exhaustive enumeration
over all r^M colorings (no pruning, no symmetry breaking) and then frozen;
test_small_universes_match_independent_enumeration keeps a compact version
of that cross-check alive inside the suite.  For k = 2 and two colors the
least universe where every coloring admits a monochromatic pair sumset is
M = 14.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import time
from itertools import combinations, product

import pytest

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


def brute_lex_least(k, r, M, prefix=()):
    """Lex-least coloring of {1..M} that starts with prefix and has no
    monochromatic k-sumset, by brute force over every coloring."""
    for tail in product(range(r), repeat=M - len(prefix)):  # ascending
        colors = tuple(prefix) + tail
        if not any(
            all_pair_sums_one_color(colors, X)
            for X in combinations(range(1, M // 2 + 1), k)
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


def test_threshold_scan_worker_count_is_invisible():
    for k, r, M_max in ((2, 2, LEAST_FORCED_M), (2, 3, 20)):
        sequential = threshold_scan(k, r, M_max)
        pooled = threshold_scan(k, r, M_max, workers=2)
        assert pooled == sequential
        assert [rec.witness for rec in pooled] == [rec.witness for rec in sequential]


def test_parallel_results_stop_kills_the_running_tasks():
    quick = (2, 2, 4, None, None, (0,))
    # tens of seconds of search, unless stopping the schedule kills it
    slow = (3, 3, 200, 400_000, None, (0,))
    results = _parallel_results([quick, slow], workers=2)
    start = time.monotonic()
    assert next(results) == find_bad_coloring(2, 2, 4, forced_prefix=(0,))
    results.close()
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_parallel_results_raise_a_task_error():
    with pytest.raises(ValueError):
        list(_parallel_results([(2, 2, 4, None, None, (0,)), (0, 2, 4, None, None, (0,))], 2))
    assert multiprocessing.active_children() == []


def test_threshold_scan_budget_gives_undecided():
    records = threshold_scan(2, 2, 6, budget=5)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 5 + [UNDECIDED]
    assert records[-1].witness is None


def test_threshold_scan_x_max_zero_is_vacuous():
    records = threshold_scan(2, 2, 3, x_max=0)
    assert [rec.verdict for rec in records] == [ESCAPABLE] * 3
    assert [rec.witness.colors for rec in records] == [(0,), (0, 0), (0, 0, 0)]


def test_threshold_scan_validation():
    with pytest.raises(ValueError):
        threshold_scan(2, 2, 4, workers=0)
    with pytest.raises(ValueError):
        threshold_scan(2, 2, 4, workers=2, checkpoint_path="/tmp/nope.json")


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
    # Written when r = 3 split into all nine prefixes starting with 0: the
    # run was inside task 5, (0, 1, 2), which no task of today's list of
    # five covers, so its task indices must not be reused.
    path = tmp_path / "scan.json"
    done = [{"task": t, "exhausted": True, "nodes": 10} for t in range(5)]
    state = {
        "config": {"k": 2, "r": 3, "budget": None, "x_max": None},
        "records": [],
        "in_flight": {"M": 8, "task": 5, "prefix": [0, 1, 2, 0], "nodes": 40, "tasks_done": done},
    }
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="into tasks None"):
        threshold_scan(2, 3, 8, checkpoint_path=path)
    state["in_flight"]["tasks"] = [list(p) for p in product(range(1), range(3), range(3))]
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="into tasks"):
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
    state["records"][1].update(verdict=FORCED, witness=None)
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="M=3 is ESCAPABLE but M=2 is FORCED"):
        threshold_scan(2, 2, 5, checkpoint_path=path)


def crash_inside_m12(path, monkeypatch) -> dict:
    """Run the (2, 2) scan to M = 12 with a checkpoint every 5 nodes, crash
    at the 26th checkpoint write, and return the checkpoint left behind."""
    real_write = _ScanCheckpoint._write
    writes = {"n": 0}

    def crash_on_twenty_sixth(self):
        writes["n"] += 1
        if writes["n"] == 26:
            raise RuntimeError("simulated crash")
        real_write(self)

    monkeypatch.setattr(_ScanCheckpoint, "_write", crash_on_twenty_sixth)
    with pytest.raises(RuntimeError, match="simulated crash"):
        threshold_scan(2, 2, 12, checkpoint_path=path, checkpoint_interval=5)
    monkeypatch.setattr(_ScanCheckpoint, "_write", real_write)
    return json.loads(path.read_text())


def test_checkpoint_crash_resume(tmp_path, monkeypatch):
    baseline = threshold_scan(2, 2, 12)
    path = tmp_path / "scan.json"
    snapshot = crash_inside_m12(path, monkeypatch)

    # The crash lands in the second task of M = 12, after the first one
    # was exhausted, so resuming must skip a finished task and fast-forward
    # inside the next one.
    assert len(snapshot["records"]) == 11
    in_flight = snapshot["in_flight"]
    assert in_flight["M"] == 12 and in_flight["task"] == 1
    assert in_flight["tasks"] == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]
    assert in_flight["prefix"] == [0, 0, 1, 0, 1]
    assert in_flight["tasks_done"] == [{"task": 0, "exhausted": True, "nodes": 15}]

    resumed = threshold_scan(2, 2, 12, checkpoint_path=path, checkpoint_interval=5)
    assert resumed == baseline
    assert [rec.witness for rec in resumed] == [rec.witness for rec in baseline]


def test_checkpoint_rejects_in_flight_bookkeeping_the_writer_never_stores(tmp_path, monkeypatch):
    # The writer stores tasks_done = [task 0] while inside task 1 of four.
    path = tmp_path / "scan.json"
    snapshot = crash_inside_m12(path, monkeypatch)
    assert snapshot["in_flight"]["task"] == 1

    def entry(task):
        return {"task": task, "exhausted": True, "nodes": 15}

    tampered = [
        (1, []),  # task 0 would be run again
        (1, [entry(0), entry(1)]),  # the in-flight task would be skipped
        (1, [entry(0), entry(0)]),
        (1, [entry(0), entry(3)]),  # task 3 would be skipped
        (1, [entry(0), entry(9)]),  # there is no task 9
        (4, [entry(t) for t in range(4)]),  # there are only four tasks
        (-1, []),
    ]
    for task, done in tampered:
        state = json.loads(json.dumps(snapshot))
        state["in_flight"].update(task=task, tasks_done=done)
        path.write_text(json.dumps(state))
        message = re.escape(f"checkpoint {path} is inside task {task} of 4")
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
