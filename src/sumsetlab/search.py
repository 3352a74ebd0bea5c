"""Empirical thresholds for monochromatic sumsets inside {1..M}.

A coloring of {1..M} is "bad" for size k when no k-element X drawn from
{1..x_max} has all its pairwise sums (doubles included) in one color.  X
ranges over {1..floor(M/2)} by default so that X + X stays inside the
colored universe; the bound is a parameter because that finitization
convention is a choice, not a theorem.

find_bad_coloring hunts for a bad coloring by depth-first search over
assignments of positions 1, 2, ..., M, with two exact devices:

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

A surviving leaf is re-verified by a fresh exhaustive scan before being
reported.

threshold_scan drives the hunt for M = 1..M_max and classifies each M as
ESCAPABLE (a verified bad coloring exists), FORCED (the search space was
exhausted: every coloring admits a monochromatic sumset), or UNDECIDED
(budget ran out).  The coloring space is always split into the same fixed
prefix tasks whatever the worker count, each task gets the full budget,
and the first witness in task order wins, so results are reproducible
bit for bit under any parallelism.  FORCED
verdicts are monotone in M; the scan asserts this and aborts loudly on a
violation, since one would mean the X-range convention was broken
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
from itertools import combinations
from multiprocessing import get_context
from multiprocessing.connection import wait
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

    The scan is exhaustive over subsets of {1..x_max}, so None is a proof
    for the given coloring.
    """
    if k < 1:
        raise ValueError("witness size must be positive")
    limit = _x_limit(coloring.M, x_max)
    colors = coloring.colors  # every sum is in 2..2*limit, inside 1..M
    for X in combinations(range(1, limit + 1), k):
        sums = {a + b for a, b in combinations(X, 2)} | {2 * a for a in X}
        seen = {colors[s - 1] for s in sums}
        if len(seen) == 1:
            return X
    return None


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


class _SearchBudget(Exception):
    pass


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
    one that crosses the budget; skipped colors are not nodes.

    forced_prefix pins the colors of the first positions (the task
    decomposition hook); it may break the first-use order, and the free
    positions after it follow the rule above from its colors.
    resume_from fast-forwards to a previously checkpointed assignment
    prefix, skipping every branch the earlier run already cleared.  The
    checkpoint callback receives (assignment prefix, nodes) every
    checkpoint_interval nodes.
    """
    if k < 1 or r < 1 or M < 0:
        raise ValueError("need k >= 1, r >= 1, M >= 0")
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
    assignment = [0] * M
    nodes = 0

    def walk(pos: int, used: int, on_resume_path: bool):
        nonlocal nodes
        if pos > M:
            candidate = NatColoring(r=r, colors=tuple(assignment))
            if has_mono_sumset(candidate, k, x_max=limit) is not None:
                raise RuntimeError(
                    "pruning admitted a coloring with a monochromatic sumset; "
                    "the X-range convention is broken"
                )
            return candidate
        if pos <= len(forced_prefix):
            options = 1 << forced_prefix[pos - 1]
        else:
            # the used colors plus the least unused one
            options = (used | (used + 1)) & every_color
        options &= ~struck[pos]
        resuming_here = (
            on_resume_path and resume_from is not None and pos <= len(resume_from)
        )
        if resuming_here:
            options &= -1 << resume_from[pos - 1]
        here = 1 << pos
        while options:
            mark = options & -options
            options ^= mark
            color = mark.bit_length() - 1
            assignment[pos - 1] = color
            nodes += 1
            if budget is not None and nodes > budget:
                raise _SearchBudget
            if checkpoint is not None and nodes % checkpoint_interval == 0:
                checkpoint(tuple(assignment[:pos]), nodes)
            mine = holders[color] | here
            holders[color] = mine
            newly = []
            for mask, target in zip(masks[pos], targets[pos]):
                if mask & mine == mask and not struck[target] & mark:
                    struck[target] |= mark
                    newly.append(target)
                    if struck[target] == every_color:
                        break
            else:  # no position lost its last color
                result = walk(
                    pos + 1,
                    used | mark,
                    resuming_here and color == resume_from[pos - 1],
                )
                if result is not None:
                    return result
            for target in newly:
                struck[target] ^= mark
            holders[color] = mine ^ here
        return None

    try:
        witness = walk(1, 0, resume_from is not None)
    except _SearchBudget:
        return BadSearch(coloring=None, exhausted=False, nodes=nodes)
    finally:
        # walk refers to itself; breaking the cycle frees the tables now
        # rather than at the next cyclic collection.
        del walk
    if witness is not None:
        return BadSearch(coloring=witness, exhausted=False, nodes=nodes)
    return BadSearch(coloring=None, exhausted=True, nodes=nodes)


@dataclass(frozen=True)
class ThresholdRecord:
    k: int
    r: int
    M: int
    verdict: str
    witness: NatColoring | None
    # Every schedule counts the tasks up to the first witness, but a resumed
    # run counts only the nodes after its checkpoint, so they are diagnostics only.
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
    explores the same tasks and merges to the same answer.  Checkpoints
    store it beside the in-flight task index and are refused if it differs.
    """
    prefixes = [(0,)]
    for _ in range(min(2, max(M - 1, 0))):
        prefixes = [
            prefix + (color,)
            for prefix in prefixes
            for color in range(min(max(prefix) + 2, r))
        ]
    return prefixes


def _run_prefix_task(args) -> BadSearch:
    k, r, M, budget, x_max, prefix = args
    return find_bad_coloring(k, r, M, budget=budget, x_max=x_max, forced_prefix=prefix)


def _report_prefix_task(writer, args) -> None:
    try:
        outcome = (True, _run_prefix_task(args))
    except Exception as error:
        outcome = (False, error)
    writer.send(outcome)
    writer.close()


def _parallel_results(tasks: list[tuple], workers: int):
    """Yield the results of tasks in task order, each computed in a child
    process of its own, at most `workers` at a time.

    Each child reports on a pipe nobody else writes to, so closing the
    generator early may kill the children still running.  A Pool cannot be
    stopped that way: its workers share one result queue and its lock, and
    a worker killed by Pool.terminate while holding that lock hangs the
    parent for good.
    """
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
                child = ctx.Process(target=_report_prefix_task, args=(writer, task), daemon=True)
                child.start()
                writer.close()
                running[reader] = (index, child)
            for reader in wait(list(running)):
                index, child = running.pop(reader)
                try:
                    done[index] = reader.recv()
                except EOFError:
                    done[index] = (False, RuntimeError(f"search task {index} died"))
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


def _scan_one(
    k: int,
    r: int,
    M: int,
    budget: int | None,
    x_max: int | None,
    workers: int,
    task_hook: Callable[[int, tuple[int, ...]], BadSearch] | None = None,
) -> ThresholdRecord:
    prefixes = _task_prefixes(r, M)
    tasks = [(k, r, M, budget, x_max, prefix) for prefix in prefixes]
    witness = None
    all_exhausted = True
    nodes = 0
    if workers > 1:
        schedule = closing(_parallel_results(tasks, workers))
    elif task_hook is not None:
        schedule = nullcontext(map(task_hook, range(len(prefixes)), prefixes))
    else:
        schedule = nullcontext(map(_run_prefix_task, tasks))
    with schedule as results:
        for result in results:
            nodes += result.nodes
            if result.found:
                witness = result.coloring
                break
            all_exhausted = all_exhausted and result.exhausted
    if witness is not None:
        return ThresholdRecord(k=k, r=r, M=M, verdict=ESCAPABLE, witness=witness, nodes=nodes)
    if all_exhausted:
        return ThresholdRecord(k=k, r=r, M=M, verdict=FORCED, witness=None, nodes=nodes)
    return ThresholdRecord(k=k, r=r, M=M, verdict=UNDECIDED, witness=None, nodes=nodes)


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

    Every fresh witness has passed find_bad_coloring's exhaustive leaf
    re-check, and every witness read back from a checkpoint is re-checked
    the same way on load.  A FORCED verdict followed by an ESCAPABLE one at
    larger M aborts the run: with ValueError naming the row when the FORCED
    row was read from the checkpoint, with RuntimeError when this run found
    both.  A checkpoint whose stored rows skip an M or already break that
    order is refused.  With a checkpoint path (single worker only) the scan
    persists completed records plus the in-flight DFS prefix and resumes
    from them.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if checkpoint_path is not None and workers > 1:
        raise ValueError("checkpointing requires a single worker")
    state = _ScanCheckpoint(checkpoint_path, k, r, budget, x_max, checkpoint_interval)
    # M_max is not part of the checkpoint identity: the records for each M
    # are the same no matter how far a run intends to go, so a later run may
    # extend (or truncate its view of) an earlier scan.
    records = state.completed_records()[:M_max]
    stored = len(records)
    forced_at = next((record.M for record in records if record.verdict == FORCED), None)
    for M in range(stored + 1, M_max + 1):
        record = _scan_one(
            k, r, M, budget, x_max, workers, task_hook=state.task_hook_for(M)
        )
        if record.verdict == ESCAPABLE and forced_at is not None:
            # A stored row is outside input: the file is at fault, not the search.
            if forced_at <= stored:
                raise ValueError(
                    f"checkpoint {state.path}: monotonicity violated: its row M={forced_at} "
                    f"is FORCED but a bad coloring exists at M={M}"
                )
            raise RuntimeError(
                f"monotonicity violated: FORCED below M={M} but a bad coloring "
                f"exists at M={M}"
            )
        if record.verdict == FORCED and forced_at is None:
            forced_at = M
        records.append(record)
        state.record_done(records)
    state.finish()
    return records


class _ScanCheckpoint:
    """Persistence for threshold_scan: completed records plus, inside the
    M being scanned, per-task outcomes and the current DFS prefix."""

    def __init__(self, path, k, r, budget, x_max, interval):
        self.path = Path(path) if path is not None else None
        self.config = {"k": k, "r": r, "budget": budget, "x_max": x_max}
        self.interval = interval
        self.state = {"config": self.config, "records": [], "in_flight": None}
        if self.path is not None and self.path.exists():
            loaded = json.loads(self.path.read_text())
            if loaded.get("config") != self.config:
                raise ValueError(
                    f"checkpoint {self.path} was written for config {loaded.get('config')}"
                )
            # The in-flight task indices mean something only under the task
            # list they were written with.
            in_flight = loaded.get("in_flight")
            if in_flight is not None and in_flight.get("tasks") != _task_list(r, in_flight["M"]):
                raise ValueError(
                    f"checkpoint {self.path} splits M={in_flight['M']} into "
                    f"tasks {in_flight.get('tasks')}, not {_task_list(r, in_flight['M'])}"
                )
            self.state = loaded

    def completed_records(self) -> list[ThresholdRecord]:
        """The stored records.  They must be the rows M = 1, 2, ... in order,
        no ESCAPABLE row may follow a FORCED one, and a stored witness must
        color exactly 1..M and admit no monochromatic X + X, or ValueError
        is raised."""
        records = []
        forced_at = None
        for M, row in enumerate(self.state["records"], start=1):
            if row["M"] != M:
                raise ValueError(f"checkpoint {self.path}: row {M} is for M={row['M']}, not M={M}")
            if row["verdict"] == ESCAPABLE and forced_at is not None:
                raise ValueError(
                    f"checkpoint {self.path}: M={M} is ESCAPABLE but M={forced_at} is FORCED"
                )
            if row["verdict"] == FORCED and forced_at is None:
                forced_at = M
            witness = None
            if row["witness"] is not None:
                witness = NatColoring(r=self.config["r"], colors=tuple(row["witness"]))
                if witness.M != M:
                    raise ValueError(
                        f"checkpoint {self.path}: the M={M} witness colors {witness.M} positions"
                    )
                X = has_mono_sumset(witness, self.config["k"], x_max=self.config["x_max"])
                if X is not None:
                    raise ValueError(
                        f"checkpoint {self.path}: the M={M} witness makes X={X} monochromatic"
                    )
            records.append(
                ThresholdRecord(
                    k=self.config["k"],
                    r=self.config["r"],
                    M=M,
                    verdict=row["verdict"],
                    witness=witness,
                    nodes=row["nodes"],
                )
            )
        return records

    def task_hook_for(self, M: int):
        if self.path is None:
            return None
        in_flight = self.state.get("in_flight")
        done: dict[int, tuple] = {}
        resume_task = None
        resume_prefix = None
        if in_flight is not None and in_flight["M"] == M:
            done = {
                entry["task"]: (entry["exhausted"], entry["nodes"])
                for entry in in_flight["tasks_done"]
            }
            resume_task = in_flight["task"]
            resume_prefix = tuple(in_flight["prefix"])
        tasks_done: list[dict] = [
            {"task": t, "exhausted": e, "nodes": n} for t, (e, n) in sorted(done.items())
        ]
        task_list = _task_list(self.config["r"], M)

        def hook(index: int, prefix: tuple[int, ...]) -> BadSearch:
            if index in done:
                exhausted, nodes = done[index]
                return BadSearch(coloring=None, exhausted=exhausted, nodes=nodes)

            def save(dfs_prefix: tuple[int, ...], nodes: int) -> None:
                self.state["in_flight"] = {
                    "M": M,
                    "tasks": task_list,
                    "task": index,
                    "prefix": list(dfs_prefix),
                    "nodes": nodes,
                    "tasks_done": tasks_done,
                }
                self._write()

            config = self.config
            result = find_bad_coloring(
                config["k"],
                config["r"],
                M,
                budget=config["budget"],
                x_max=config["x_max"],
                forced_prefix=prefix,
                resume_from=resume_prefix if index == resume_task else None,
                checkpoint=save,
                checkpoint_interval=self.interval,
            )
            if not result.found:
                tasks_done.append(
                    {"task": index, "exhausted": result.exhausted, "nodes": result.nodes}
                )
            return result

        return hook

    def record_done(self, records: list[ThresholdRecord]) -> None:
        if self.path is None:
            return
        self.state["records"] = [
            {
                "M": record.M,
                "verdict": record.verdict,
                "witness": list(record.witness.colors) if record.witness else None,
                "nodes": record.nodes,
            }
            for record in records
        ]
        self.state["in_flight"] = None
        self._write()

    def finish(self) -> None:
        if self.path is not None:
            self._write()

    def _write(self) -> None:
        write_text_atomic(self.path, json.dumps(self.state, sort_keys=True, indent=2) + "\n")


def _task_list(r: int, M: int) -> list[list[int]]:
    """_task_prefixes(r, M) as a checkpoint stores it."""
    return [list(prefix) for prefix in _task_prefixes(r, M)]


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
    finally:
        tmp.unlink(missing_ok=True)


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
