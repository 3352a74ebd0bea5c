"""Command line front end for the pipelines, searches, and checkers.

Every run embeds its semantic configuration (not resource knobs like
worker counts) in its primary output, and identical configurations yield
byte-identical outputs whatever the parallelism.  Exit codes are machine
readable: 0 success, 1 usage or parse problem, 2 a search or pipeline
came up empty after a complete search, 3 a verification failed (a
certificate's re-check, or a pipeline's check of its own witness), 4 a
search or pipeline stopped at its budget before finding anything (for
search, the table is written and some row is UNDECIDED).

The single --seed (default 0) is the only randomness inlet: a bare
"seeded-hash" oracle descriptor picks it up, and descriptors written into
outputs always carry the resolved seed so certificates self-describe.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations
from pathlib import Path

from .deltasys import SupportAssignment, check_cl3, check_cl4, generate_canonical
from .oracle import (
    PipelineFailure,
    TableError,
    UnsoundCertificate,
    check_points,
    derived,
    make_oracle,
)
from .pipeline2 import Pipeline2Certificate, construct2, derived_tuple_colorings
from .pipeline_r import PipelineRCertificate, construct_r
from .ramsey import (
    FULL_SCAN_ARITY,
    FULL_SCAN_POINTS,
    TRUNCATED_BUDGET,
    HomogeneousSet,
    brute_homogeneous,
    greedy_end_homogeneous,
)
from .search import (
    DEFAULT_CHECKPOINT_INTERVAL,
    UNDECIDED,
    threshold_scan,
    write_csv,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the convention here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def resolve_descriptor(descriptor: str, seed: int) -> str:
    """Fill a bare seeded-hash descriptor with the run's seed, recursively
    through wrappers, so emitted configs are self-contained."""
    kind, sep, rest = descriptor.partition(":")
    if kind == "seeded-hash" and not sep:
        return f"seeded-hash:{seed}"
    if kind == "order-invariant-wrapper" and sep:
        return f"order-invariant-wrapper:{resolve_descriptor(rest, seed)}"
    return descriptor


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _emit_certificate(result, config: dict, out: str | None) -> int:
    """Emit a pipeline certificate with its config, or report the failure."""
    if isinstance(result, PipelineFailure):
        return _fail(
            f"no witness family: {result.reason} "
            f"(exhaustive={result.exhaustive}, stage={result.stage})",
            EXIT_NOT_FOUND if result.exhaustive else EXIT_BUDGET,
        )
    _emit({**result.to_payload(), "config": config}, out)
    return EXIT_OK


def cmd_construct2(args) -> int:
    descriptor = resolve_descriptor(args.oracle, args.seed)
    config = {
        "subcommand": "construct2",
        "oracle": descriptor,
        "r": 2,
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "budget": args.budget,
    }
    oracle = make_oracle(descriptor, 2)
    result = construct2(oracle, args.n, args.m, budget=args.budget)
    return _emit_certificate(result, config, args.out)


def cmd_construct_r(args) -> int:
    descriptor = resolve_descriptor(args.oracle, args.seed)
    config = {
        "subcommand": "construct-r",
        "oracle": descriptor,
        "r": args.r,
        "n": args.n,
        "m": args.m,
        "count": args.count,
        "shrink_size": args.shrink_size,
        "seed": args.seed,
    }
    oracle = make_oracle(descriptor, args.r)
    result = construct_r(
        oracle, args.r, args.n, args.m, count=args.count, shrink_size=args.shrink_size
    )
    return _emit_certificate(result, config, args.out)


def cmd_ramsey(args) -> int:
    descriptor = resolve_descriptor(args.oracle, args.seed)
    config = {
        "subcommand": "ramsey",
        "oracle": descriptor,
        "r": args.r,
        "level": args.level,
        "n": args.n,
        "m": args.m,
        "method": args.method,
        "seed": args.seed,
        "budget": args.budget,
    }
    oracle = make_oracle(descriptor, args.r)
    if not 0 <= args.level <= args.r:
        raise ValueError(f"level must lie in 0..{args.r}")
    coloring = derived_tuple_colorings(oracle, args.n)[args.level]
    if args.method == "brute":
        found = brute_homogeneous(coloring, args.m, budget=args.budget)
    else:
        found = greedy_end_homogeneous(coloring, args.m, budget=args.budget)
    if not isinstance(found, HomogeneousSet):
        message = f"no homogeneous set: {found.reason} (exhaustive={found.exhaustive})"
        if args.budget is None and not found.exhaustive:
            unit = "subsets" if args.method == "brute" else "nodes"
            message += (
                f"; without --budget the search stops at the implicit cap of "
                f"{TRUNCATED_BUDGET:,} {unit} on more than {FULL_SCAN_POINTS} points "
                f"or arity above {FULL_SCAN_ARITY}, and --budget raises it"
            )
        return _fail(message, EXIT_NOT_FOUND if found.exhaustive else EXIT_BUDGET)
    payload = {
        "kind": "ramsey",
        "level": args.level,
        "arity": coloring.arity,
        "members": list(found.members),
        "top": found.top,
        "color": found.color,
        "config": config,
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    config = {
        "subcommand": "search",
        "k": args.k,
        "r": args.r,
        "M_max": args.m_max,
        "budget": args.budget,
        "x_max": args.x_max,
        "seed": args.seed,
    }
    records = threshold_scan(
        args.k,
        args.r,
        args.m_max,
        budget=args.budget,
        workers=args.workers,
        x_max=args.x_max,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
    )
    comments = [f"{key}={config[key]}" for key in sorted(config)]
    write_csv(records, args.out, header_comments=comments)
    undecided = [record.M for record in records if record.verdict == UNDECIDED]
    if undecided:
        return _fail(f"the budget left M={undecided} UNDECIDED", EXIT_BUDGET)
    return EXIT_OK


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_deltasys(args) -> int:
    if args.check is not None:
        try:
            assignment = SupportAssignment.loads(Path(args.check).read_text())
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            return _fail(f"not a support assignment: {exc!r}", EXIT_USAGE)
        origin = f"loaded from {Path(args.check).name}"
    else:
        if args.E is None or args.d is None or args.pad is None:
            raise ValueError("generation needs --E, --d, and --pad (or use --check)")
        E = _parse_int_list(args.E)
        pad = _parse_int_list(args.pad)
        assignment = generate_canonical(E, args.d, pad, universe=args.universe)
        origin = "generated"
        if args.out:
            payload = assignment.to_payload()
            payload["config"] = {
                "subcommand": "deltasys",
                "E": list(E),
                "d": args.d,
                "pad": list(pad),
                "universe": args.universe,
                "seed": args.seed,
            }
            _emit(payload, args.out)
    cl3 = check_cl3(assignment)
    cl4 = check_cl4(assignment, cl3)
    print(f"assignment {origin}: |E|={len(assignment.E)}, d={assignment.d}")
    print(cl3.describe())
    print(cl4.describe())
    if cl3.clean and cl4.clean:
        return EXIT_OK
    return EXIT_VERIFY


def _recheck_ramsey(payload: dict) -> None:
    config = payload["config"]
    r, level, n = config["r"], payload["level"], config["n"]
    oracle = make_oracle(config["oracle"], r)
    if not 0 <= level <= r:
        raise ValueError(f"level {level} out of range for r={r}")
    if len(payload["members"]) != config["m"]:
        raise ValueError(f"{len(payload['members'])} members, config says m={config['m']}")
    points = sorted(payload["members"])
    if payload["top"] is not None:
        points.append(payload["top"])
    check_points(points, n)
    arity = r + level
    if payload["arity"] != arity:
        raise UnsoundCertificate(f"arity {payload['arity']} is not r + level = {arity}")
    if any(a >= b for a, b in zip(points, points[1:])):
        raise ValueError(f"members and top must be distinct with the top last, got {points}")
    for tup in combinations(points, arity):
        color = derived(oracle, level, tup)
        if color != payload["color"]:
            raise UnsoundCertificate(f"tuple {tup} has color {color}")


_RECHECKERS = {
    "construct2": Pipeline2Certificate.recheck,
    "construct-r": PipelineRCertificate.recheck,
    "ramsey": _recheck_ramsey,
}


def cmd_verify(args) -> int:
    try:
        payload = json.loads(Path(args.certificate).read_text())
        kind = payload["kind"]
        recheck = _RECHECKERS[kind]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return _fail(f"not a certificate: {exc!r}", EXIT_USAGE)
    try:
        recheck(payload)
    except UnsoundCertificate as exc:
        return _fail(f"certificate unsound: {exc}", EXIT_VERIFY)
    except (KeyError, ValueError, TypeError) as exc:
        return _fail(f"malformed certificate: {exc!r}", EXIT_USAGE)
    print(f"certificate OK: {kind}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process on first use.

    parse_args keeps its results in a fresh namespace per call, so one
    parser serves any number of main calls.  Each subcommand names its
    cmd_* function, which main looks up when it runs, so a function
    rebound on this module after the parser was built is the one called.
    """
    parser = _Parser(prog="sumsetlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, oracle=True):
        if oracle:
            p.add_argument("--oracle", required=True, help="oracle descriptor, e.g. four-count")
        p.add_argument("--seed", type=int, default=0, help="single randomness inlet (default 0)")
        p.add_argument("--out", help="write the primary output here instead of stdout")

    p2 = sub.add_parser("construct2", help="two-color witness pipeline")
    common(p2)
    p2.add_argument("--n", type=int, required=True, help="universe size")
    p2.add_argument("--m", type=int, required=True, help="homogeneous member count")
    p2.add_argument("--budget", type=int, default=None)
    p2.set_defaults(run="cmd_construct2")

    pr = sub.add_parser("construct-r", help="general witness pipeline")
    common(pr)
    pr.add_argument("--r", type=int, required=True, help="number of colors and families")
    pr.add_argument("--n", type=int, required=True, help="universe size")
    pr.add_argument("--m", type=int, required=True, help="final member count per family")
    pr.add_argument("--count", type=int, default=None, help="witness family size")
    pr.add_argument("--shrink-size", type=int, default=None)
    pr.set_defaults(run="cmd_construct_r")

    pram = sub.add_parser("ramsey", help="direct homogeneous-set search")
    common(pram)
    pram.add_argument("--r", type=int, required=True)
    pram.add_argument("--level", type=int, required=True, help="derived coloring level")
    pram.add_argument("--n", type=int, required=True)
    pram.add_argument("--m", type=int, required=True)
    pram.add_argument("--method", choices=("greedy", "brute"), default="greedy")
    pram.add_argument("--budget", type=int, default=None)
    pram.set_defaults(run="cmd_ramsey")

    ps = sub.add_parser("search", help="threshold scan for monochromatic sumsets")
    ps.add_argument("--k", type=int, required=True, help="witness size")
    ps.add_argument("--r", type=int, required=True, help="colors")
    ps.add_argument("--m-max", type=int, required=True, help="largest universe 1..M")
    ps.add_argument("--budget", type=int, default=None)
    ps.add_argument(
        "--x-max", type=int, default=None, help="largest element X may use, at most M // 2 per M"
    )
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--checkpoint", default=None, help="JSON state file")
    ps.add_argument("--checkpoint-interval", type=int, default=DEFAULT_CHECKPOINT_INTERVAL)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, help="CSV table path")
    ps.set_defaults(run="cmd_search")

    pd = sub.add_parser("deltasys", help="generate or check support assignments")
    pd.add_argument("--check", default=None, help="assignment JSON to re-check")
    pd.add_argument("--E", default=None, help="comma-separated index set")
    pd.add_argument("--d", type=int, default=None)
    pd.add_argument("--pad", default=None, help="fresh points per size class, comma-separated")
    pd.add_argument("--universe", type=int, default=None)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", default=None, help="write the assignment JSON here")
    pd.set_defaults(run="cmd_deltasys")

    pv = sub.add_parser("verify", help="re-verify an emitted certificate")
    pv.add_argument("certificate", help="certificate JSON path")
    pv.set_defaults(run="cmd_verify")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.run](args)
    except (ValueError, TableError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsoundCertificate as exc:
        # A pipeline's own soundness gate refused its witness (for instance
        # under a false order_invariant declaration); nothing was written.
        print(f"{parser.prog}: witness unsound: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
