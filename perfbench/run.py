"""Benchmark of sumsetlab: the scan, construct-r and certify workloads.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root.  One client drives a closed loop: each pass
over a workload's ops runs in a fresh child interpreter (child.py), one at a
time, until the next pass would end past --seconds; at least one pass runs.
Set-up (interpreter start, ``import sumsetlab``, building the inputs) is
timed per child, in the passes and in extra set-up-only children, and
reported as a median.  After the passes, the ops marked guard run once more
with an explicit large --budget and must give the same output.

norm_wall_s and setup_s are in reference seconds: measured seconds scaled
by the machine speed that speed.py samples in the same child.  wall_s, the
unscaled pass time, is printed too but not listed in BENCHMARK.json, since
on a shared host it drifts by more than any bound it could be given.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of traced passes, each traced pass following an untraced one whose output
bytes it must reproduce.  Every metric is printed as a table row with its
unit; the last line is one JSON object with correct, attempted, failed and
metrics.  --seed drives the inputs the program sees: the seeded-hash seed
and the --seed fields.  At seed 0 and full size the outputs must also match
the digests in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
CLOCK = time.CLOCK_MONOTONIC

WORKLOADS = ("scan", "construct-r", "certify")
REFERENCE_SEED = 0
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
# Printed rows that BENCHMARK.json does not list: fail_ratio is carried by
# failed / attempted, and the unscaled wall_s drifts with the host's speed
# by more than any bound a benchmark metric may have.
INFORMATIVE = ("fail_ratio", "wall_s")

# (name, unit); counts repeat exactly from run to run.
PER_LAYER = (
    ("qvec.QVec.calls", "count"),
    ("qvec.QVec.self_s", "s"),
    ("qvec.parse.self_s", "s"),
    ("qvec.sumset.self_s", "s"),
    ("pattern.star.calls", "count"),
    ("pattern.star.self_s", "s"),
    ("pattern.canonical_tuple.calls", "count"),
    ("pattern.canonical_tuple.self_s", "s"),
    ("oracle.color.calls", "count"),
    ("oracle.color.distinct", "count"),
    ("oracle.color.hit_ratio", "ratio"),
    ("oracle.color.self_s", "s"),
    ("oracle.verify_witness.s", "s"),
    ("ramsey.TupleColoring.color.calls", "count"),
    ("ramsey.TupleColoring.color.distinct", "count"),
    ("ramsey.TupleColoring.color.hit_ratio", "ratio"),
    ("ramsey.TupleColoring.color.self_s", "s"),
    ("ramsey.greedy_end_homogeneous.s", "s"),
    ("ramsey.multi_homogeneous.s", "s"),
    ("ramsey.brute_homogeneous.s", "s"),
    ("pipeline2.construct2.s", "s"),
    ("pipeline_r.check_levels.s", "s"),
    ("pipeline_r.check_levels.tuples", "count"),
    ("pipeline_r.iter_canonical_tuples.yielded", "count"),
    ("pipeline_r.iter_canonical_tuples.self_s", "s"),
    ("pipeline_r.shrink.s", "s"),
    ("pipeline_r.replacement_search.calls", "count"),
    ("pipeline_r.replacement_search.s", "s"),
    ("pipeline_r.verify_saturation.s", "s"),
    ("pipeline_r.last_step.s", "s"),
    ("pipeline_r.witness_vectors.s", "s"),
    ("search.threshold_scan.s", "s"),
    ("search.find_bad_coloring.calls", "count"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("search.has_mono_sumset.calls", "count"),
    ("search.has_mono_sumset.s", "s"),
    ("search.write_csv.s", "s"),
    ("deltasys.generate_canonical.s", "s"),
    ("deltasys.check_cl3.s", "s"),
    ("deltasys.check_cl4.s", "s"),
    ("cli.self_s", "s"),
    ("cli.verify.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not measure: a child crashed or timed out."""


def program_seed(seed: int) -> int:
    return random.Random(seed).randrange(1 << 32)


def spawn(workdir: Path, config: dict) -> dict:
    """Run child.py once and return its result with the scaled times added."""
    workdir.mkdir(parents=True)
    config = dict(config, workdir=str(workdir), result=str(workdir / "result.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.clock_gettime(CLOCK)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workdir.name}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workdir.name}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(Path(config["result"]).read_text())
    # Set-up and pass times in reference seconds (see speed.py).
    result["setup_s"] = (result["t_first_op"] - start) * result["setup_scale"]
    if "wall_s" in result:
        result["norm_wall_s"] = result["wall_s"] * result["scale"]
    return result


def layer_value(name: str, layers: dict, counters: dict) -> float:
    if name in counters:
        return counters[name]
    span, _, field = name.rpartition(".")
    stats = layers.get(span, {})
    if field == "hit_ratio":
        calls = stats.get("calls", 0)
        return 1 - counters.get(span + ".distinct", 0) / calls if calls else 0.0
    if name == "search.nodes_per_s":
        seconds = layers.get("search.threshold_scan", {}).get("s", 0)
        return counters.get("search.nodes", 0) / seconds if seconds else 0.0
    return stats.get(field, 0)


class Run:
    """All children of one workload run, and the checks across them."""

    def __init__(self, workload: str, size: str, seed: int, trace: bool, reference):
        self.workload = workload
        self.trace = trace
        self.config = {"workload": workload, "size": size, "seed": program_seed(seed)}
        self.workdir = WORK / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.children = 0
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, mode: str, trace: bool = False) -> dict:
        self.children += 1
        label = f"{self.children:03d}-{mode}" + ("-traced" if trace else "")
        return spawn(self.workdir / label, dict(self.config, mode=mode, trace=trace))

    def measure(self, seconds: float):
        """Closed loop of passes (untraced, or untraced then traced)."""
        self.child("probe")  # fills the bytecode cache before anything is timed
        plain, traced = [], []
        start = time.clock_gettime(CLOCK)
        while True:
            plain.append(self.child("pass"))
            if self.trace:
                traced.append(self.child("pass", trace=True))
            elapsed = time.clock_gettime(CLOCK) - start
            if elapsed * (len(plain) + 1) / len(plain) > seconds:
                return plain, traced

    def check_passes(self, passes: list[dict], first: dict) -> None:
        for result in passes:
            for op in result["ops"]:
                self.attempted += 1
                name = op["name"]
                reason = op["error"]
                if reason is None and op["digest"] != first[name]:
                    reason = "output bytes differ from the first pass"
                if reason is None and self.reference and op["digest"] != self.reference[name]:
                    reason = "output bytes differ from reference.json"
                if reason:
                    self.failures.append(f"{self.workload} {name}: {reason}")

    def check_guard(self, first_pass: dict) -> None:
        expected = {op["name"]: op.get("budget_free_digest") for op in first_pass["ops"]}
        if not any(expected.values()):
            return
        for op in self.child("guard")["ops"]:
            self.attempted += 1
            reason = op["error"]
            if reason is None and op["budget_free_digest"] != expected[op["name"]]:
                reason = "output changes under an explicit --budget"
            if reason:
                self.failures.append(f"{self.workload} {op['name']} (guard): {reason}")


def run_workload(
    workload: str, size: str, seed: int, seconds: float, trace: bool, reference=None
) -> dict:
    """Measure one workload; reference maps op names to expected digests."""
    run = Run(workload, size, seed, trace, reference)
    plain, traced = run.measure(seconds)
    first = {op["name"]: op["digest"] for op in plain[0]["ops"]}
    run.check_passes(plain + traced, first)
    rows = []  # (name, value, unit, note)
    if not trace:
        run.check_guard(plain[0])
        setups = [p["setup_s"] for p in plain]
        setups += [run.child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
        walls = [p["norm_wall_s"] for p in plain]
        raw = [p["wall_s"] for p in plain]
        rss = [p["peak_rss_mb"] for p in plain]
        rows.append(("norm_wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes"))
        rows.append(("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"))
        rows.append(("peak_rss_mb", statistics.median(rss), "MB", f"median of {len(rss)} passes"))
        rows.append(("wall_s", statistics.median(raw), "s", f"median of {len(raw)} passes, unscaled"))
    else:
        per_pass = [
            {name: layer_value(name, t["layers"], t["counters"]) for name, _ in PER_LAYER[:-1]}
            for t in traced
        ]
        for name, unit in PER_LAYER[:-1]:
            values = [values[name] for values in per_pass]
            if unit == "count" and len(set(values)) > 1:
                run.failures.append(f"{workload} {name}: differs between traced passes {values}")
            rows.append((name, statistics.median(values), unit, f"median of {len(values)} traced passes"))
        ratio = statistics.median(t["norm_wall_s"] for t in traced) / statistics.median(
            p["norm_wall_s"] for p in plain
        )
        rows.append(("trace.overhead_ratio", ratio, "ratio", "traced / untraced norm_wall_s"))
    failed = len(run.failures)
    rows.append(("fail_ratio", failed / run.attempted, "ratio", f"{failed} of {run.attempted} ops"))
    return {
        "workload": workload,
        "rows": rows,
        "attempted": run.attempted,
        "failures": run.failures,
        "digests": first,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every op on small inputs, for the smoke check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sumsetlab" / "__init__.py").is_file():
        print(f"no sumsetlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reference = {"digests": {}, "counts": {}}
    if args.seed == REFERENCE_SEED and args.size == "full":
        reference = json.loads(REFERENCE.read_text())
    reports = []
    try:
        for workload in workloads:
            reports.append(run_workload(
                workload, args.size, args.seed, args.seconds, bool(args.trace),
                reference["digests"].get(workload),
            ))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for report in reports:
        for failure in report["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        recorded = reference["counts"].get(report["workload"], {})
        for name, value, _, _ in report["rows"]:
            if name in recorded and recorded[name] != value:
                print(f"note: {report['workload']} {name} = {value}, "
                      f"reference.json records {recorded[name]}", file=sys.stderr)
        for name, value, unit, note in report["rows"]:
            print(f"{report['workload']:<12} {name:<42} {value:>16.6f} {unit:<6} {note}")
            if name not in INFORMATIVE:
                key = name if len(reports) == 1 else f"{report['workload']}.{name}"
                metrics[key] = {"value": value, "unit": unit}
    failed = sum(len(report["failures"]) for report in reports)
    summary = {
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
