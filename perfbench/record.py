"""Record the reference digests and exact counters at seed 0, full size.

    python3 perfbench/record.py

Runs each workload twice with tracing (one untraced and one traced pass
each time), requires the same output digests and counts from both runs,
and writes perfbench/reference.json.  run.py checks outputs against the
digests whenever it runs at seed 0 and full size, so rerun this only for a
change that alters primary outputs on purpose, and say so in the change.
The counts are there for claims made in counts rather than seconds.
"""

from __future__ import annotations

import json
import sys

from run import PER_LAYER, REFERENCE, REFERENCE_SEED, WORKLOADS, run_workload

COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def record(workload: str) -> tuple[dict, dict]:
    runs = [run_workload(workload, "full", REFERENCE_SEED, 0, True) for _ in range(2)]
    for report in runs:
        if report["failures"]:
            raise SystemExit("\n".join(report["failures"]))
    digests, counts = [], []
    for report in runs:
        digests.append(report["digests"])
        values = {name: value for name, value, _, _ in report["rows"]}
        counts.append({name: values[name] for name in COUNTS})
    if digests[0] != digests[1] or counts[0] != counts[1]:
        raise SystemExit(f"{workload}: two runs disagree:\n{digests}\n{counts}")
    return digests[0], counts[0]


def main() -> int:
    reference = {"seed": REFERENCE_SEED, "size": "full", "digests": {}, "counts": {}}
    for workload in WORKLOADS:
        reference["digests"][workload], reference["counts"][workload] = record(workload)
        print(f"recorded {workload}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
