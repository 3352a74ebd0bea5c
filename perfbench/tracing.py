"""Span tracing of the sumsetlab layers, done from outside the package.

instrument() replaces public functions and methods of the package modules
by wrappers that record one span per call: name, start, end, parent span
and op id.  Spans live in flat arrays in memory and are written out once,
after the ops, by Tracer.dump.  Modules bind imported names directly
(``from .pattern import star`` in pipeline_r), so every module attribute
that is the wrapped object is rebound, not only the defining one.

Counters that a span cannot express are kept beside the spans: distinct
first arguments per instance for the memoised ``color`` methods, values
yielded by the tuple generator, and totals read off returned objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

MODULES = ("qvec", "pattern", "oracle", "ramsey", "pipeline2", "pipeline_r", "search", "deltasys", "cli")

# (module, attribute, span name, wrapper kind); a dotted attribute is a
# class member.  "memo" marks memoised lookups: the distinct keys per
# instance are the memo misses.  "generator" makes each resumption a span.
TARGETS = (
    ("qvec", "QVec.__init__", "qvec.QVec", "call"),
    ("qvec", "QVec.parse", "qvec.parse", "call"),
    ("qvec", "sumset", "qvec.sumset", "call"),
    ("pattern", "star", "pattern.star", "call"),
    ("pattern", "canonical_tuple", "pattern.canonical_tuple", "call"),
    ("oracle", "ColoringOracle.color", "oracle.color", "memo"),
    ("oracle", "verify_witness", "oracle.verify_witness", "call"),
    ("ramsey", "TupleColoring.color", "ramsey.TupleColoring.color", "memo"),
    ("ramsey", "greedy_end_homogeneous", "ramsey.greedy_end_homogeneous", "call"),
    ("ramsey", "multi_homogeneous", "ramsey.multi_homogeneous", "call"),
    ("ramsey", "brute_homogeneous", "ramsey.brute_homogeneous", "call"),
    ("pipeline2", "construct2", "pipeline2.construct2", "call"),
    ("pipeline_r", "check_levels", "pipeline_r.check_levels", "call"),
    ("pipeline_r", "iter_canonical_tuples", "pipeline_r.iter_canonical_tuples", "generator"),
    ("pipeline_r", "shrink", "pipeline_r.shrink", "call"),
    ("pipeline_r", "replacement_search", "pipeline_r.replacement_search", "call"),
    ("pipeline_r", "verify_saturation", "pipeline_r.verify_saturation", "call"),
    ("pipeline_r", "last_step", "pipeline_r.last_step", "call"),
    ("pipeline_r", "witness_vectors", "pipeline_r.witness_vectors", "call"),
    ("search", "threshold_scan", "search.threshold_scan", "call"),
    ("search", "find_bad_coloring", "search.find_bad_coloring", "call"),
    ("search", "has_mono_sumset", "search.has_mono_sumset", "call"),
    ("search", "write_csv", "search.write_csv", "call"),
    ("deltasys", "generate_canonical", "deltasys.generate_canonical", "call"),
    ("deltasys", "check_cl3", "deltasys.check_cl3", "call"),
    ("deltasys", "check_cl4", "deltasys.check_cl4", "call"),
    ("cli", "main", "cli", "call"),
    ("cli", "cmd_verify", "cli.verify", "call"),
)
# Span name -> (counter, total read off the returned object).
RESULT_COUNTERS = {
    "pipeline_r.check_levels": (
        "pipeline_r.check_levels.tuples",
        lambda report: sum(level.tuple_count for level in report.levels),
    ),
    "search.threshold_scan": (
        "search.nodes",
        lambda records: sum(record.nodes for record in records),
    ),
}


class Tracer:
    """Spans of one process, in start order, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("l")
        self.op = array("i")
        # 1 when no enclosing span has the same name, so inclusive times
        # of a re-entrant layer are not counted twice.
        self.outer = array("b")
        self._stack = [-1]
        self._active: list[int] = []
        self.op_id = -1
        self.counters: dict[str, int] = {}
        self._seen: dict[str, dict[int, tuple[object, set]]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, nid: int) -> None:
        self.end[index] = time.perf_counter()
        self._active[nid] -= 1
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def see(self, name: str, owner: object, key) -> None:
        # Keeps the owner alive until end_op so its id cannot be reused.
        per_owner = self._seen.setdefault(name, {})
        entry = per_owner.get(id(owner))
        if entry is None:
            entry = per_owner[id(owner)] = (owner, set())
        entry[1].add(key)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        for name, per_owner in self._seen.items():
            self.count(name + ".distinct", sum(len(keys) for _, keys in per_owner.values()))
        self._seen.clear()
        self.op_id = -1

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost spans, and
        self seconds (duration minus the time child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        by_id = [out[name] for name in self.names]
        name, outer = self.name, self.outer
        for i in range(n):
            entry = by_id[name[i]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child[i]
            if outer[i]:
                entry["s"] += duration
        return out

    def dump(self, stem: str) -> None:
        """Write the spans as <stem>.bin (arrays in field order) and
        <stem>.json (names, field order and array type codes)."""
        fields = ("start", "end", "name", "parent", "op", "outer")
        with open(stem + ".bin", "wb") as handle:
            for field in fields:
                getattr(self, field).tofile(handle)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [[field, getattr(self, field).typecode] for field in fields],
        }
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(layout, handle, indent=1)


def _traced_call(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    counter, total = RESULT_COUNTERS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index, nid)
        if counter is not None:
            tracer.count(counter, total(result))
        return result

    return traced


def _traced_memo(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(self, key, *args, **kwargs):
        tracer.see(name, self, tuple(key) if isinstance(key, list) else key)
        index = tracer.open(nid)
        try:
            return fn(self, key, *args, **kwargs)
        finally:
            tracer.close(index, nid)

    return traced


def _traced_generator(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    yielded = name + ".yielded"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index, nid)
            tracer.count(yielded)
            yield item

    return traced


WRAPPERS = {"call": _traced_call, "memo": _traced_memo, "generator": _traced_generator}


def instrument(package) -> Tracer:
    """Wrap the traced layers of an imported sumsetlab package."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
    tracer = Tracer()
    for module_name, attr, name, kind in TARGETS:
        module = modules[module_name]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[member]
            if isinstance(original, classmethod):
                wrapped = classmethod(WRAPPERS[kind](tracer, original.__func__, name))
            else:
                wrapped = WRAPPERS[kind](tracer, original, name)
            setattr(owner, member, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = WRAPPERS[kind](tracer, original, name)
        for holder in (package, *modules.values()):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    return tracer
