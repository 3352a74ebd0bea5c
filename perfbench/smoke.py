"""Smoke check of the benchmark: every workload at tiny size, both passes.

    python3 perfbench/smoke.py

Runs ``run.py --workload all --size tiny`` with --trace 0 and --trace 1 and
exits non-zero unless both runs are correct and print, for every workload,
every metric that BENCHMARK.json names for that pass, plus fail_ratio, each
with the unit BENCHMARK.json gives it.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def check_pass(trace: int, expected: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return [f"--trace {trace}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, name, _value, unit, *_ = line.split()
        printed[(workload, name)] = unit
    problems = []
    for workload in WORKLOADS:
        for name, unit in {**expected, "fail_ratio": "ratio"}.items():
            if printed.get((workload, name)) != unit:
                problems.append(f"--trace {trace}: {workload} {name} [{unit}] printed as "
                                f"{printed.get((workload, name))}")
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"]:
        problems.append(f"--trace {trace}: not correct\n{proc.stderr}")
    names = {f"{w}.{name}" for w in WORKLOADS for name in expected}
    if set(summary["metrics"]) != names:
        problems.append(f"--trace {trace}: JSON metrics differ: {sorted(set(summary['metrics']) ^ names)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        problems += check_pass(trace, {m["name"]: m["unit"] for m in bench[key]})
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
