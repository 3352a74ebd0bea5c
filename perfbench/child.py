"""One run of a workload in a fresh interpreter, started by run.py.

Usage: PYTHONPATH=src python3 perfbench/child.py '<json config>'

The config names the workload, size, program seed, mode, trace flag, work
directory and result file.  Set-up is everything before the first op:
interpreter start, ``import sumsetlab``, building the inputs and, when
traced, wrapping the layers.  Mode "probe" stops there; "pass" runs every
op of the workload once, timed, then checks the outputs; "guard" reruns
the ops marked guard with an explicit large --budget.  The result file
gets the clock reading at the first op, per-op outcomes and digests, peak
RSS, the speed scale factors of speed.py and, when traced, the per-layer
summary.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import sumsetlab
import sumsetlab.cli
from sumsetlab.oracle import WitnessCertificate, verify_witness

import checks
import ops as workload_ops
from speed import SpeedSampler
from tracing import instrument

CLOCK = time.CLOCK_MONOTONIC


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _output_files(workdir: Path, op) -> list[Path]:
    return sorted({path for pattern in op.outputs for path in workdir.glob(pattern)})


def _budget_free_digest(files: list[Path]) -> str:
    """Digest of the JSON outputs with config.budget dropped, so runs with
    and without an explicit budget can be compared."""
    parts = []
    for path in files:
        payload = json.loads(path.read_text())
        payload.get("config", {}).pop("budget", None)
        parts.append((path.name, json.dumps(payload, sort_keys=True).encode()))
    return _digest(parts)


def run_op(op, size: str, argv_extra=()):
    """Run one op; returns (exit code, printed text, certificate object)."""
    out, err = io.StringIO(), io.StringIO()
    cert = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if op.argv:
            code = sumsetlab.cli.main(list(op.argv) + list(argv_extra))
        else:
            cert = workload_ops.run_position_cut(size)
            code = 0 if hasattr(cert, "to_payload") else 2
            if code == 0:
                print(json.dumps(cert.to_payload(), sort_keys=True, indent=2))
    return code, out.getvalue() + err.getvalue(), cert


def check_op(op, size: str, workdir: Path, code: int, text: str, cert) -> str | None:
    """None when the op's output passes its checks, else the reason."""
    if code != 0:
        return f"exit code {code}: {text.strip()[-300:]}"
    if op.scan is not None:
        k, r, m_max = op.scan
        checks.check_scan_table(workdir / f"{op.name}.csv", k, r, m_max)
    if cert is not None:
        fresh = verify_witness(workload_ops.position_cut_oracle(size), cert.witness.vectors)
        if not isinstance(fresh, WitnessCertificate):
            return f"fresh oracle rejects the witness: {fresh.describe()}"
        if fresh.sums_payload() != cert.witness.sums_payload():
            return "fresh oracle colors the sums differently"
    return None


def main(config: dict) -> None:
    workdir = Path(config["workdir"])
    size = config["size"]
    ops = workload_ops.build_ops(config["workload"], size, config["seed"])
    if config["mode"] == "guard":
        ops = [op for op in ops if op.guard]
    tracer = instrument(sumsetlab) if config["trace"] else None
    os.chdir(workdir)
    result = {"t_first_op": time.clock_gettime(CLOCK), "ops": []}
    sampler = SpeedSampler(workload_ops.CALIBRATION[config["workload"]])
    result["setup_scale"] = sampler.scale()
    if config["mode"] != "probe":
        extra = ("--budget", workload_ops.GUARD_BUDGET) if config["mode"] == "guard" else ()
        outcomes = []
        with sampler:
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.begin_op(index)
                sampled = sampler.handler_s
                start = time.perf_counter()
                try:
                    outcome = run_op(op, size, extra)
                except Exception:
                    outcome = (None, traceback.format_exc(), None)
                seconds = time.perf_counter() - start - (sampler.handler_s - sampled)
                if tracer is not None:
                    tracer.end_op()
                outcomes.append((op, seconds, outcome))
        result["scale"] = sampler.scale()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_s"] = sum(seconds for _, seconds, _ in outcomes)
        if tracer is not None:
            # Taken before the checks, which call traced functions too.
            result["layers"] = tracer.summary()
            result["counters"] = tracer.counters
            tracer.dump(str(workdir / "spans"))
        for op, seconds, (code, text, cert) in outcomes:
            try:
                error = check_op(op, size, workdir, code, text, cert)
            except Exception:
                error = traceback.format_exc()
            files = _output_files(workdir, op)
            parts = [(path.name, path.read_bytes()) for path in files]
            parts.append(("<printed>", text.encode()))
            entry = {"name": op.name, "seconds": seconds, "error": error, "digest": _digest(parts)}
            if op.guard and error is None:
                entry["budget_free_digest"] = _budget_free_digest(files)
            result["ops"].append(entry)
    Path(config["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
