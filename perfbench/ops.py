"""The ops of each workload, built from the program seed.

An op is either a CLI run through ``sumsetlab.cli.main(argv)`` or, for the
position-cut construction, a library call.  Its primary output is the
bytes of the files it writes (matched by glob in the work directory, in
name order) followed by what it printed.  README.md says why each workload
exists and what its sizes exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

from sumsetlab.oracle import ColoringOracle
from sumsetlab.pipeline_r import construct_r, system_from_universe

WORKLOADS = ("scan", "construct-r", "certify")
# Calibration unit of speed.py that each workload's times are scaled by.
CALIBRATION = {"scan": "search", "construct-r": "pipelines", "certify": "pipelines"}

# Large enough that no op reaches it, so an explicit budget must leave the
# output as it is without one.
GUARD_BUDGET = "1000000000"

SIZES = {
    "full": {
        "scan": ((2, 3, 40), (3, 2, 40), (2, 2, 40)),
        "position_cut": {"r": 3, "n": 60, "m": 3, "cut": 6},
        "order_invariant": {"r": 4, "n": 48, "m": 4},
        "construct2": {"n": 140, "m": 18},
        "ramsey": {"n": 40, "m": 12},
        "deltasys": {"E": "0,1,2,3,4,5,6,7", "d": 3, "pad": "1,1,1,1"},
    },
    "tiny": {
        "scan": ((2, 3, 12), (3, 2, 12), (2, 2, 16)),
        "position_cut": {"r": 3, "n": 45, "m": 3, "cut": 9},
        "order_invariant": {"r": 4, "n": 24, "m": 4},
        "construct2": {"n": 24, "m": 6},
        "ramsey": {"n": 16, "m": 6},
        "deltasys": {"E": "0,1,2,3", "d": 2, "pad": "1,1,1"},
    },
}


class PositionCutOracle(ColoringOracle):
    """Colors a level pattern by the family positions of its unprimed pairs.

    The color is 1 when an unprimed entry of a paired block sits at or above
    the cut position of its family in the initial layout.  Shrink then runs
    for real (every replacement keeps colors) and last_step has to select
    member positions below the cut.
    """

    def __init__(self, r: int, n: int, cut: int):
        super().__init__(r, f"position-cut:{cut}")
        sys0 = system_from_universe(r, n)
        self._pos = {f.members[p]: p for f in sys0.families for p in range(f.size)}
        self._cut = cut

    def _color_impl(self, v):
        l = sum(1 for value in v.values_in_order() if value == 2) // 2
        support = v.support
        return 1 if any(self._pos[support[2 * k]] >= self._cut for k in range(l)) else 0


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...] = ()  # empty for the library op
    outputs: tuple[str, ...] = ()  # globs in the work directory
    guard: bool = False  # rerun once with an explicit --budget GUARD_BUDGET
    scan: tuple[int, int, int] | None = None  # (k, r, M_max) of a search op


def build_ops(workload: str, size: str, seed: int) -> list[Op]:
    p = SIZES[size]
    s = str(seed)
    if workload == "scan":
        ops = []
        for k, r, m_max in p["scan"]:
            stem = f"scan-k{k}-r{r}"
            argv = ("search", "--k", str(k), "--r", str(r), "--m-max", str(m_max),
                    "--workers", "1", "--seed", s, "--out", f"{stem}.csv")
            ops.append(Op(stem, argv, outputs=(f"{stem}*",), scan=(k, r, m_max)))
        return ops
    if workload == "construct-r":
        q = p["order_invariant"]
        argv = ("construct-r", "--oracle", f"order-invariant-wrapper:seeded-hash:{s}",
                "--r", str(q["r"]), "--n", str(q["n"]), "--m", str(q["m"]),
                "--seed", s, "--out", "construct-r.json")
        return [
            Op("position-cut"),
            Op("construct-r", argv, outputs=("construct-r.json",)),
            Op("verify-construct-r", ("verify", "construct-r.json")),
        ]
    if workload == "certify":
        c2, ram, ds = p["construct2"], p["ramsey"], p["deltasys"]
        ops = []
        for oracle in ("four-count", "floor-sum"):
            argv = ("construct2", "--oracle", oracle, "--n", str(c2["n"]), "--m", str(c2["m"]),
                    "--seed", s, "--out", f"construct2-{oracle}.json")
            ops.append(Op(f"construct2-{oracle}", argv, (f"construct2-{oracle}.json",), guard=True))
        argv = ("ramsey", "--oracle", "floor-sum", "--r", "2", "--level", "2",
                "--n", str(ram["n"]), "--m", str(ram["m"]), "--seed", s, "--out", "ramsey.json")
        ops.append(Op("ramsey", argv, ("ramsey.json",), guard=True))
        argv = ("deltasys", "--E", ds["E"], "--d", str(ds["d"]), "--pad", ds["pad"],
                "--seed", s, "--out", "deltasys.json")
        ops.append(Op("deltasys-generate", argv, ("deltasys.json",)))
        ops.append(Op("deltasys-check", ("deltasys", "--check", "deltasys.json")))
        for cert in ("construct2-four-count", "construct2-floor-sum", "ramsey"):
            ops.append(Op(f"verify-{cert}", ("verify", f"{cert}.json")))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def position_cut_oracle(size: str) -> PositionCutOracle:
    q = SIZES[size]["position_cut"]
    return PositionCutOracle(q["r"], q["n"], q["cut"])


def run_position_cut(size: str):
    """The general pipeline with a real shrink and last_step."""
    q = SIZES[size]["position_cut"]
    return construct_r(position_cut_oracle(size), q["r"], q["n"], q["m"])
