"""Empirical thresholds for monochromatic sumsets inside {1..M}.

A coloring of {1..M} is "bad" for size k when no k-element X drawn from
{1..x_max} has all its pairwise sums (doubles included) in one color.  X
ranges over {1..floor(M/2)} by default so that X + X stays inside the
colored universe; the bound is a parameter because that finitization
convention is a choice, not a theorem.

find_bad_coloring hunts for a bad coloring by depth-first search over
assignments of positions 1, 2, ..., M.  The search is one loop over an
explicit stack that holds, per position, the colors still to try, the
colors used below it, the color in place and the strikes that color made,
so its depth is not bounded by the interpreter's recursion limit.  It has
two exact devices:

- Value symmetry.  Color names are interchangeable, so a free position
  may take a color already used or the least unused one; colors then first
  appear in increasing order, as they do in the lexicographically least
  bad coloring, which is therefore never pruned.
- Forward checking through a strike table.  For each X with x = max(X),
  the sums other than 2x are all below 2x, and the largest of them, p, is
  where the table files X.  Once p is colored c, if all those sums are c,
  c is struck from position 2x: X is monochromatic in c exactly when they
  are c and 2x is c.  A struck color is never tried, and a position with
  every color struck kills the subtree at once.

A surviving leaf is re-verified before being reported by has_mono_sumset,
an exhaustive search over X that shares no code with the strike table.

threshold_scan drives the hunt for M = 1..M_max and classifies each M as
ESCAPABLE (a verified bad coloring exists), FORCED (the search space was
exhausted: every coloring admits a monochromatic sumset), or UNDECIDED
(budget ran out).  X ranges over {1..min(x_max, floor(M/2))} at each M.
The coloring space is always split into the same fixed prefix tasks
whatever the worker count, and each task gets the full budget (a task
resumed from a checkpoint gets what its earlier run left of it).  The
first task in task order that does not finish exhausted decides the row:
its witness makes it ESCAPABLE, its budget cutoff UNDECIDED, and the tasks
after it do not count.  So every witness is the least bad coloring, and
results are reproducible bit for bit under any parallelism and budget,
and with or without kills and resumes.

Each M starts at w(M-1), the least bad coloring of {1..M-1}, when the
previous row found it.  The X range never shrinks as M grows, so w(M) cut
to 1..M-1 is bad there and sorts at or above w(M-1): the tasks whose
prefix sorts below w(M-1) are logged as finished without a witness and
not run, and the task that w(M-1) starts with resumes from it.  Witnesses
and unbudgeted verdicts are those of a scan that searches every task from
its start; node counts are diagnostics and shrink, and a budgeted row can
be decided where that scan would leave it UNDECIDED.

FORCED verdicts are monotone in M; the scan asserts this and aborts loudly
on a violation, since one would mean the X-range convention was broken
somewhere, or, when the FORCED row was read from a checkpoint, that the
file is wrong.

Checkpoints, tables and witness files go through write_text_atomic, so a
crash mid-write leaves the previous file, never a torn one.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

FORCED = "FORCED"
ESCAPABLE = "ESCAPABLE"
UNDECIDED = "UNDECIDED"

DEFAULT_CHECKPOINT_INTERVAL = 100_000


@dataclass(frozen=True)
class NatColoring:
    """Coloring of {1..M}; colors[i-1] is the color of i."""

    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one color")
        bad = [c for c in self.colors if not 0 <= c < self.r]
        if bad:
            raise ValueError(f"colors out of range for r={self.r}: {bad}")

    @property
    def M(self) -> int:
        return len(self.colors)

    def serialize(self) -> str:
        return "".join(f"{i}:{c}\n" for i, c in enumerate(self.colors, start=1))

    @classmethod
    def parse(cls, text: str, r: int) -> "NatColoring":
        table = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            left, _, right = line.partition(":")
            table[int(left)] = int(right)
        if set(table) != set(range(1, len(table) + 1)):
            raise ValueError(f"positions must be exactly 1..{len(table)}")
        return cls(r=r, colors=tuple(table[i] for i in range(1, len(table) + 1)))


def _x_limit(M: int, x_max: int | None) -> int:
    limit = M // 2 if x_max is None else x_max
    if limit < 0 or 2 * limit > M:
        raise ValueError(f"x_max={limit} puts sums past the universe 1..{M}")
    return limit


def has_mono_sumset(coloring: NatColoring, k: int, x_max: int | None = None):
    """Lexicographically least X of size k with X + X monochromatic, else None.

    A depth-k search over X = (x_1 < x_2 < ...) inside {1..x_max} in
    lexicographic order.  It extends X by y only while 2y and every x + y
    take the color of 2x_1, so it cuts just the prefixes that no member added
    later can make monochromatic, and None is a proof for the given coloring.
    """
    if k < 1:
        raise ValueError("witness size must be positive")
    limit = _x_limit(coloring.M, x_max)
    colors = coloring.colors  # every sum is in 2..2*limit, inside 1..M
    X: list[int] = []
    y = 1
    while True:
        if y + k - len(X) - 1 > limit:  # too few values left above y to complete X
            if not X:
                return None
            y = X.pop() + 1
            continue
        color = colors[2 * (X[0] if X else y) - 1]
        if colors[2 * y - 1] == color and all(colors[x + y - 1] == color for x in X):
            X.append(y)
            if len(X) == k:
                return tuple(X)
        y += 1


@dataclass(frozen=True)
class BadSearch:
    """Outcome of a bad-coloring hunt; exhausted distinguishes a completed
    scan from a budget cutoff when no coloring was found."""

    coloring: NatColoring | None
    exhausted: bool
    nodes: int

    @property
    def found(self) -> bool:
        return self.coloring is not None


def _strike_table(k: int, M: int, limit: int) -> tuple[list[list[int]], list[list[int]]]:
    """Forward-checking table for k >= 2: masks[p][i] and targets[p][i] are
    mask and 2x for each k-subset X of {1..limit}, x = max(X), where mask
    has bit s for each sum s of X + X other than 2x and p is the largest
    such s.  (Two flat lists rather than a list of pairs: a third of the
    memory for k = 3.)

    p < 2x, so once p is colored all of mask is colored; if it is all one
    color c, giving 2x the color c would make X + X monochromatic.  For
    k = 1 the lists are empty: X = {x} has no sum but 2x to file under.
    """
    masks: list[list[int]] = [[] for _ in range(M + 1)]
    targets: list[list[int]] = [[] for _ in range(M + 1)]
    if k == 1:
        return masks, targets
    # (members, sums) bitmasks of every (k-1)-subset S, grown one element at
    # a time: adding y > max(S) adds S + y and 2y to S + S.
    partial = [(0, 0)]
    for _ in range(k - 1):
        partial = [
            (members | 1 << y, sums | members << y | 1 << 2 * y)
            for members, sums in partial
            for y in range(members.bit_length() or 1, limit + 1)
        ]
    for members, sums in partial:
        top = members.bit_length() - 1
        for x in range(top + 1, limit + 1):
            masks[x + top].append(sums | members << x)
            targets[x + top].append(2 * x)
    return masks, targets


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def find_bad_coloring(
    k: int,
    r: int,
    M: int,
    budget: int | None = None,
    x_max: int | None = None,
    forced_prefix: Sequence[int] = (),
    resume_from: Sequence[int] | None = None,
    checkpoint: Callable[[tuple[int, ...], int], None] | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> BadSearch:
    """Depth-first hunt for a coloring of {1..M} without a monochromatic
    k-sumset, in lexicographic order of assignments.

    Positions are colored 1, 2, ..., M.  A free position may take any color
    already used or the least unused one, so colors first appear in
    increasing order after the forced prefix; the lexicographically least
    bad coloring has that form, so it is never pruned.  Coloring p with c
    strikes c from 2x for every X whose other sums (filed under p by
    _strike_table) are now all c; a struck color is skipped, and a position
    with every color struck kills the subtree at once; for k = 1 that is
    position 2, up front.  nodes counts one per color assigned, including the
    one that crosses the budget; skipped colors are not nodes.  The walk is
    one loop over an explicit stack with a slot per position, so M is not
    bounded by the interpreter's recursion limit.

    forced_prefix pins the colors of the first positions (the task
    decomposition hook); it may break the first-use order, and the free
    positions after it follow the rule above from its colors.
    resume_from fast-forwards to a previously checkpointed assignment
    prefix P, skipping every branch the earlier run already cleared; it
    spends len(P) nodes on assigning P again.  The checkpoint callback
    receives (assignment prefix, nodes) every checkpoint_interval nodes.
    """
    if k < 1 or r < 1 or M < 0:
        raise ValueError("need k >= 1, r >= 1, M >= 0")
    _check_budget(budget)
    limit = _x_limit(M, x_max)
    if len(forced_prefix) > M:
        raise ValueError("forced prefix longer than the universe")
    bad_values = [c for c in (*forced_prefix, *(resume_from or ())) if not 0 <= c < r]
    if bad_values:
        raise ValueError(f"prefix colors out of range: {bad_values}")
    if resume_from is not None:
        for i, c in enumerate(forced_prefix):
            if i < len(resume_from) and resume_from[i] != c:
                raise ValueError("resume point contradicts the forced prefix")

    if k == 1 and limit >= 1:
        # X = {1} has no sums but 2, so every color is struck from 2
        return BadSearch(coloring=None, exhausted=True, nodes=0)
    every_color = (1 << r) - 1
    masks, targets = _strike_table(k, M, limit)
    # struck[t]: bitmask of the colors that would complete a monochromatic
    # X + X at position t; holders[c]: bitmask of the positions colored c.
    struck = [0] * (M + 1)
    holders = [0] * r
    # The DFS stack, one slot per position p: options[p] holds the colors
    # still to try at p, used[p] the colors used below p, marks[p] the color
    # in place at p (0 before p is reached) and newly[p] its strikes.
    options = [0] * (M + 1)
    used = [0] * (M + 2)
    marks = [0] * (M + 2)
    newly: list[list[int]] = [[]] * (M + 1)
    nodes = 0
    # Lexicographic order: once the walk leaves resume_from's path, it never returns.
    on_resume_path = resume_from is not None
    pos = 1
    while pos:
        mark = marks[pos]
        if mark:  # back at pos: take back the color in place
            for target in newly[pos]:
                struck[target] ^= mark
            holders[mark.bit_length() - 1] ^= 1 << pos
            left = options[pos]
        elif pos > M:
            candidate = NatColoring(r, tuple(m.bit_length() - 1 for m in marks[1:pos]))
            if has_mono_sumset(candidate, k, x_max=limit) is not None:
                raise RuntimeError(
                    "pruning admitted a coloring with a monochromatic sumset; "
                    "the X-range convention is broken"
                )
            return BadSearch(coloring=candidate, exhausted=False, nodes=nodes)
        else:  # just reached from pos - 1
            if pos <= len(forced_prefix):
                left = 1 << forced_prefix[pos - 1]
            else:
                # the used colors plus the least unused one
                left = (used[pos] | (used[pos] + 1)) & every_color
            left &= ~struck[pos]
            on_resume_path = on_resume_path and pos <= len(resume_from)
            if on_resume_path:
                left &= -1 << resume_from[pos - 1]
        if not left:
            marks[pos] = 0
            pos -= 1
            continue
        mark = left & -left
        options[pos] = left ^ mark
        marks[pos] = mark
        nodes += 1
        if budget is not None and nodes > budget:
            return BadSearch(coloring=None, exhausted=False, nodes=nodes)
        if checkpoint is not None and nodes % checkpoint_interval == 0:
            checkpoint(tuple(m.bit_length() - 1 for m in marks[1 : pos + 1]), nodes)
        color = mark.bit_length() - 1
        if on_resume_path and color != resume_from[pos - 1]:
            on_resume_path = False
        mine = holders[color] | 1 << pos
        holders[color] = mine
        newly[pos] = hits = []
        for mask, target in zip(masks[pos], targets[pos]):
            if mask & mine == mask and not struck[target] & mark:
                struck[target] |= mark
                hits.append(target)
                if struck[target] == every_color:
                    break  # kill: the next pass tries the next color at pos
        else:  # no position lost its last color
            used[pos + 1] = used[pos] | mark
            pos += 1
    return BadSearch(coloring=None, exhausted=True, nodes=nodes)


@dataclass(frozen=True)
class ThresholdRecord:
    """One row of a scan; a witness is the least bad coloring of {1..M}."""

    k: int
    r: int
    M: int
    verdict: str
    witness: NatColoring | None
    # Every schedule counts the tasks up to the deciding one, but a resumed
    # run skips the tasks its checkpoint marks finished, so they are diagnostics only.
    nodes: int = field(compare=False)

    def __post_init__(self):
        if self.verdict not in (FORCED, ESCAPABLE, UNDECIDED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == ESCAPABLE) != (self.witness is not None):
            raise ValueError("exactly the ESCAPABLE records carry a witness")


def _task_prefixes(r: int, M: int) -> list[tuple[int, ...]]:
    """Fixed decomposition of the coloring space by short prefixes, in
    lexicographic order, each listing its colors in first-use order (the
    rule find_bad_coloring applies to free positions).

    Depends only on (r, M), never on the worker count, so any schedule
    explores the same tasks and merges to the same answer.  A checkpoint
    logs one entry per task of this list.
    """
    prefixes = [(0,)]
    for _ in range(min(2, max(M - 1, 0))):
        prefixes = [
            prefix + (color,)
            for prefix in prefixes
            for color in range(min(max(prefix) + 2, r))
        ]
    return prefixes


def _run_task(task: tuple, checkpoint: Callable | None) -> BadSearch:
    # A task is (k, r, M, budget, x_max, prefix, resume_from, interval):
    # find_bad_coloring's arguments but the checkpoint callback, which a
    # child process makes for itself.
    *args, interval = task
    return find_bad_coloring(*args, checkpoint, interval)


def _report_prefix_task(writer, task: tuple, checkpointing: bool) -> None:
    # (None, (prefix, nodes)) for each DFS checkpoint, then (ok, outcome)
    checkpoint = (lambda *at: writer.send((None, at))) if checkpointing else None
    try:
        outcome = (True, _run_task(task, checkpoint))
    except Exception as error:
        outcome = (False, error)
    writer.send(outcome)
    writer.close()


def _parallel_results(tasks: list[tuple], workers: int, progress: Callable | None = None):
    """Yield the result of each task, in task order, each computed in a
    child process of its own, at most `workers` at a time.  With a progress
    callback, each DFS checkpoint of task i reaches the parent as
    progress(i, prefix, nodes).

    Each child reports on a pipe nobody else writes to, so closing the
    generator early may kill the children still running.  A Pool cannot be
    stopped that way: its workers share one result queue and its lock, and
    a worker killed by Pool.terminate while holding that lock hangs the
    parent for good.

    multiprocessing is imported here, so a run with one worker never loads
    it.
    """
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    ctx = get_context()
    todo = list(enumerate(tasks))[::-1]
    running = {}
    done = {}
    yielded = 0
    try:
        while yielded < len(tasks):
            while todo and len(running) < workers:
                index, task = todo.pop()
                reader, writer = ctx.Pipe(duplex=False)
                child = ctx.Process(
                    target=_report_prefix_task,
                    args=(writer, task, progress is not None),
                    daemon=True,
                )
                child.start()
                writer.close()
                running[reader] = (index, child)
            for reader in wait(list(running)):
                index, child = running[reader]
                try:
                    ok, value = reader.recv()
                except EOFError:
                    ok, value = False, RuntimeError(f"search task {index} died")
                if ok is None:
                    progress(index, *value)
                    continue
                done[index] = (ok, value)
                del running[reader]
                reader.close()
                child.join()
            while yielded in done:
                ok, value = done.pop(yielded)
                if not ok:
                    raise value
                yield value
                yielded += 1
    finally:
        for reader, (_, child) in running.items():
            child.kill()
            child.join()
            reader.close()


def _row_x_max(M: int, x_max: int | None) -> int | None:
    """The scan's bound on X at M: x_max, capped at M // 2 so that X + X
    stays inside 1..M; None keeps the M // 2 default."""
    return None if x_max is None else min(x_max, M // 2)


def _scan_one(
    k: int,
    r: int,
    M: int,
    budget: int | None,
    x_max: int | None,
    workers: int,
    checkpoint: _ScanCheckpoint | None = None,
    interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    start: tuple[int, ...] = (),
) -> ThresholdRecord:
    """Classify one M.  start is w(M-1), the least bad coloring of
    {1..M-1}, or () when the previous row did not find it.  w(M) cut to
    1..M-1 is bad there too (X only gains members as M grows), so it sorts
    at or above start: the tasks whose prefix sorts below start are logged
    as finished without a witness and not run, and the task that start
    begins with resumes from start.  Without a budget only the node count,
    a diagnostic, depends on start.  The first task that does not finish
    exhausted decides the row, by its witness or its budget cutoff, and the
    tasks after it are not run (or, when running, are killed); with every
    task exhausted the row is FORCED.  With a checkpoint, the tasks its log
    marks finished are not run again, the others resume from their logged
    prefix (or from start, when that is larger) with what is left of their
    budget, and every DFS checkpoint of a task is logged and written."""
    prefixes = _task_prefixes(r, M)
    log = [None] * len(prefixes) if checkpoint is None else checkpoint.log_for(M, len(prefixes))
    for i, prefix in enumerate(prefixes):
        if prefix < start[: len(prefix)]:
            log[i] = True
    pending = [i for i, entry in enumerate(log) if entry is not True]
    # A task resumed from a prefix P logged after s nodes re-walks P in
    # len(P) nodes and then retraces the earlier run, which had spent
    # s - len(P) nodes on the branches it skips.
    spent = []
    tasks = []
    for i in pending:
        resume_from = None if log[i] is None else tuple(log[i]["prefix"])
        spent.append(0 if log[i] is None else log[i]["nodes"] - len(resume_from))
        if prefixes[i] == start[: len(prefixes[i])]:
            # both are lexicographic lower bounds on the task's first witness
            resume_from = max(resume_from or (), start)
        left = None if budget is None else budget - spent[-1]
        tasks.append((k, r, M, left, _row_x_max(M, x_max), prefixes[i], resume_from, interval))
    progress = None
    if checkpoint is not None:

        def progress(n: int, prefix: tuple[int, ...], nodes: int) -> None:
            log[pending[n]] = {"prefix": list(prefix), "nodes": spent[n] + nodes}
            checkpoint.write()

    if workers > 1:
        schedule = closing(_parallel_results(tasks, workers, progress))
    else:
        hooks = [None if progress is None else partial(progress, n) for n in range(len(tasks))]
        schedule = nullcontext(map(_run_task, tasks, hooks))
    nodes = 0
    with schedule as results:
        for n, result in enumerate(results):
            nodes += spent[n] + result.nodes
            if not result.exhausted:
                verdict = ESCAPABLE if result.found else UNDECIDED
                return ThresholdRecord(
                    k=k, r=r, M=M, verdict=verdict, witness=result.coloring, nodes=nodes
                )
            log[pending[n]] = True
    return ThresholdRecord(k=k, r=r, M=M, verdict=FORCED, witness=None, nodes=nodes)


def threshold_scan(
    k: int,
    r: int,
    M_max: int,
    budget: int | None = None,
    workers: int = 1,
    x_max: int | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> list[ThresholdRecord]:
    """Classify every M <= M_max as FORCED, ESCAPABLE, or UNDECIDED.

    Each row is decided by its first task that does not finish exhausted,
    so every witness is the least one.  Each M starts at the previous
    row's witness, when it has one (found by this run or read from the
    checkpoint), and the tasks it skips are logged as finished (see
    _scan_one); the records' node counts are diagnostics.  Every fresh
    witness has passed find_bad_coloring's exhaustive leaf re-check, and
    every witness read back from a checkpoint is re-checked the same way on
    load; resume trusts a stored FORCED row, and a stored witness, whose
    colors must be in first-use order, to be the least one.  A FORCED
    verdict followed by an ESCAPABLE one at larger M aborts the run: with
    ValueError naming the row when the FORCED row was read from the
    checkpoint, with RuntimeError when this run found both.  A checkpoint
    whose stored rows skip an M or already break that order is refused.
    With a checkpoint path the scan persists completed records plus a
    per-task log of the M in flight, under any worker count, and resumes
    from them.  k < 1, r < 1, M_max < 0 and a negative budget are refused
    with ValueError before a checkpoint is read or a task is run.
    """
    if k < 1 or r < 1 or M_max < 0:
        raise ValueError("need k >= 1, r >= 1, M >= 0")
    _check_budget(budget)
    if workers < 1:
        raise ValueError("need at least one worker")
    if checkpoint_interval < 1:
        raise ValueError("need a checkpoint interval of at least one node")
    checkpoint = None
    records = []
    if checkpoint_path is not None:
        checkpoint = _ScanCheckpoint(checkpoint_path, k, r, budget, x_max)
        # M_max is not part of the checkpoint identity: the records for each
        # M are the same no matter how far a run intends to go, so a later
        # run may extend (or truncate its view of) an earlier scan.
        records = checkpoint.records[:M_max]
    stored = len(records)
    forced_at = next((record.M for record in records if record.verdict == FORCED), None)
    for M in range(stored + 1, M_max + 1):
        start = records[-1].witness.colors if records and records[-1].witness else ()
        record = _scan_one(k, r, M, budget, x_max, workers, checkpoint, checkpoint_interval, start)
        if record.verdict == ESCAPABLE and forced_at is not None:
            # A stored row is outside input: the file is at fault, not the search.
            if forced_at <= stored:
                raise ValueError(
                    f"checkpoint {checkpoint.path}: monotonicity violated: its row M={forced_at} "
                    f"is FORCED but a bad coloring exists at M={M}"
                )
            raise RuntimeError(
                f"monotonicity violated: FORCED below M={M} but a bad coloring "
                f"exists at M={M}"
            )
        if record.verdict == FORCED and forced_at is None:
            forced_at = M
        records.append(record)
        if checkpoint is not None:
            checkpoint.record_done(records)
    if checkpoint is not None:
        checkpoint.write()
    return records


def _in_first_use_order(colors: Sequence[int]) -> bool:
    """True iff colors start with 0 and each new color is the least unused one."""
    largest = -1
    for c in colors:
        if c > largest + 1:
            return False
        largest = max(largest, c)
    return True


class _ScanCheckpoint:
    """Persistence for threshold_scan: the completed records and, for the
    M in flight, a log with one entry per task of _task_prefixes: null (not
    started), {"prefix": the task's last DFS prefix, "nodes": the nodes it
    had spent there} (running), or true (finished exhausted).  A task that
    finishes otherwise decides its row, so it is never logged.  The entries
    are independent, so any number of tasks may be running."""

    def __init__(self, path, k, r, budget, x_max):
        self.path = Path(path)
        self.config = {"k": k, "r": r, "budget": budget, "x_max": x_max}
        self.state = {"config": self.config, "records": [], "in_flight": None}
        self.records: list[ThresholdRecord] = []
        if self.path.exists():
            # Every refusal passes here, so each one names the file.
            try:
                self._load(json.loads(self.path.read_text()))
            except (AttributeError, KeyError, TypeError) as exc:
                raise ValueError(f"checkpoint {self.path} is malformed: {exc!r}") from exc
            except ValueError as exc:
                raise ValueError(f"checkpoint {self.path}: {exc}") from exc

    def _load(self, loaded: dict) -> None:
        """Read the records and the log, or raise ValueError.  The records
        must be the rows M = 1, 2, ... in order, no ESCAPABLE row may follow
        a FORCED one, a stored witness must color exactly 1..M and admit no
        monochromatic X + X, and a row must be marked least exactly when it
        has a witness.  The least bad coloring has its colors in first-use
        order (0 first, each new color the least unused one), so a witness
        without that form is refused; one with it is trusted to be the
        least.  The log must be for the M after the last row, a logged prefix
        must agree with its task, and its node count must cover the prefix
        and stay within the budget."""
        if loaded["config"] != self.config:
            raise ValueError(f"it was written for config {loaded['config']}")
        k, r, x_max = self.config["k"], self.config["r"], self.config["x_max"]
        forced_at = None
        for M, row in enumerate(loaded["records"], start=1):
            if row["M"] != M:
                raise ValueError(f"row {M} is for M={row['M']}, not M={M}")
            if row["verdict"] == ESCAPABLE and forced_at is not None:
                raise ValueError(f"M={M} is ESCAPABLE but M={forced_at} is FORCED")
            if row["verdict"] == FORCED and forced_at is None:
                forced_at = M
            witness = None
            if row["witness"] is not None:
                witness = NatColoring(r=r, colors=tuple(row["witness"]))
                if witness.M != M:
                    raise ValueError(f"the M={M} witness colors {witness.M} positions")
                X = has_mono_sumset(witness, k, x_max=_row_x_max(M, x_max))
                if X is not None:
                    raise ValueError(f"the M={M} witness makes X={X} monochromatic")
            # Earlier writers stored a witness that might not be least without least=true.
            least = row.get("least", False)
            if least is not (witness is not None):
                raise ValueError(
                    f"row {M} has least={least!r} {'with' if witness else 'without'} a witness, "
                    "but exactly the witness rows are marked least; truncate records to the "
                    f"{M - 1} rows below it"
                )
            if witness is not None and not _in_first_use_order(witness.colors):
                raise ValueError(
                    f"the M={M} witness is marked least but its colors are not in first-use order"
                )
            self.records.append(
                ThresholdRecord(
                    k=k, r=r, M=M, verdict=row["verdict"], witness=witness, nodes=row["nodes"]
                )
            )
        in_flight = loaded["in_flight"]
        if in_flight is not None:
            M, log = in_flight["M"], in_flight["log"]
            if M != len(self.records) + 1:
                raise ValueError(f"M={M} is in flight after {len(self.records)} rows")
            tasks = _task_prefixes(r, M)
            if len(log) != len(tasks):
                raise ValueError(f"the M={M} log has {len(log)} entries for {len(tasks)} tasks")
            budget = self.config["budget"]
            for task, entry in zip(tasks, log):
                if isinstance(entry, list):
                    raise ValueError(
                        f"the M={M} log has a bare prefix {entry} for task {list(task)}, "
                        "a format that kept no count of the nodes the task spent"
                    )
                prefix = entry.get("prefix") if isinstance(entry, dict) else None
                running = (
                    isinstance(prefix, list)
                    and sorted(entry) == ["nodes", "prefix"]
                    and len(prefix) <= M
                    and all(type(c) is int and 0 <= c < r for c in prefix)
                    and tuple(prefix[: len(task)]) == task[: len(prefix)]
                    and type(entry["nodes"]) is int
                    and len(prefix) <= entry["nodes"]
                    and (budget is None or entry["nodes"] <= budget)
                )
                if not (entry is None or entry is True or running):
                    raise ValueError(f"the M={M} log has {entry!r} for task {list(task)}")
        self.state = loaded

    def log_for(self, M: int, task_count: int) -> list:
        """The log of M, which the caller updates in place.  A loaded log is
        for the first M the scan runs (checked on load), else it starts empty."""
        if self.state["in_flight"] is None:
            self.state["in_flight"] = {"M": M, "log": [None] * task_count}
        return self.state["in_flight"]["log"]

    def record_done(self, records: list[ThresholdRecord]) -> None:
        self.state["records"] = [
            {
                "M": record.M,
                "verdict": record.verdict,
                "witness": list(record.witness.colors) if record.witness else None,
                "nodes": record.nodes,
                "least": record.witness is not None,
            }
            for record in records
        ]
        self.state["in_flight"] = None
        self.write()

    def write(self) -> None:
        write_text_atomic(self.path, json.dumps(self.state, sort_keys=True, indent=2) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to a temp file beside path, then rename it over path.

    A crash or a failed write leaves path as it was, never half written.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(
    records: Iterable[ThresholdRecord],
    path: str | Path,
    header_comments: Sequence[str] = (),
) -> list[Path]:
    """Results table plus one witness file per ESCAPABLE record.

    Witness files live next to the table as <stem>-bad-M<M>.txt with
    "i:color" lines; the witness column holds their names.
    """
    path = Path(path)
    written = []
    lines = [f"# {comment}" for comment in header_comments]
    lines.append("k,r,M,verdict,witness")
    for record in records:
        name = ""
        if record.witness is not None:
            name = f"{path.stem}-bad-M{record.M}.txt"
            witness_path = path.with_name(name)
            write_text_atomic(witness_path, record.witness.serialize())
            written.append(witness_path)
        lines.append(f"{record.k},{record.r},{record.M},{record.verdict},{name}")
    write_text_atomic(path, "\n".join(lines) + "\n")
    return [path] + written
