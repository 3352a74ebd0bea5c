"""End-to-end acceptance battery.

One test per advertised guarantee, in the order the README lists them.
Every expectation here is either re-derived inside the test by an
independently written enumerator (no trust in the code path under test)
or is a frozen value recorded from such an enumerator before the test
was written.  Each test enforces its documented wall-clock budget and
prints a one-line summary, visible under ``pytest -s`` or ``-rA``.
"""

from __future__ import annotations

import filecmp
import time
from itertools import combinations, product

from conftest import PositionCutOracle, profile_oracle, support_of, with_support
from sumsetlab.cli import EXIT_OK, main
from sumsetlab.deltasys import check_cl3, check_cl4, generate_canonical
from sumsetlab.oracle import PipelineFailure, make_oracle
from sumsetlab.pattern import (
    TOP,
    canonical_tuple,
    is_index_strictly_increasing,
    is_l_canonical,
    make_string,
    star,
)
from sumsetlab.pipeline2 import Case, case_of, construct2
from sumsetlab.pipeline_r import (
    construct_r,
    iter_canonical_tuples,
    layout_families,
    make_witness_tuples,
    pigeonhole_pair,
    system_from_universe,
)
from sumsetlab.qvec import sumset
from sumsetlab.ramsey import (
    HomogeneousSet,
    NoHomogeneousSet,
    TupleColoring,
    brute_homogeneous,
)
from sumsetlab.search import ESCAPABLE, FORCED, threshold_scan


def announce(criterion: int, budget: float, elapsed: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s) {detail}")


# ---------------------------------------------------------------------------
# 1. pattern string family


def test_criterion_1_pattern_strings():
    """Every string is 2l twos followed by r - l fours, length r + l."""
    t0 = time.monotonic()
    checked = 0
    for r in range(1, 7):
        for l in range(0, r + 1):
            s = make_string(r, l)
            assert len(s) == r + l
            assert tuple(s) == (2,) * (2 * l) + (4,) * (r - l)
            checked += 1
    announce(1, 1.0, time.monotonic() - t0, f"{checked} strings, r up to 6")


# ---------------------------------------------------------------------------
# 2. core sumset identity


def test_criterion_2_sumset_identity():
    """Halved low-level frames sum exactly onto the high-level frame.

    For every r <= 4, 0 <= l' < l <= r and member count m <= 6, all pairs
    of witness frames satisfy (1/2)(s_l' * a_i) + (1/2)(s_l' * a_j) =
    s_l * b_ij, recomputed here from scratch, and every b_ij is an
    index-strictly-increasing l-canonical tuple.
    """
    t0 = time.monotonic()
    identities = 0
    for r in range(1, 5):
        for l in range(1, r + 1):
            for l_prime in range(0, l):
                stride = l - l_prime
                for m in range(l, 7):
                    sys = layout_families(r, m)
                    count = (m - l) // stride + 1
                    a_tuples, b_tuples = make_witness_tuples(sys, l_prime, l, count)
                    s_low = make_string(r, l_prime)
                    s_high = make_string(r, l)
                    halves = [star(s_low, a.entries).scale("1/2") for a in a_tuples]
                    for i in range(len(halves)):
                        for j in range(i + 1, len(halves)):
                            b = b_tuples[(i, j)]
                            assert halves[i] + halves[j] == star(s_high, b.entries)
                            assert is_index_strictly_increasing(b)
                            ok, reason = is_l_canonical(b, sys.families, l)
                            assert ok, (r, l_prime, l, m, i, j, reason)
                            identities += 1
    announce(2, 10.0, time.monotonic() - t0, f"{identities} pair identities, all exact")


# ---------------------------------------------------------------------------
# 3. two-color pipeline soundness


def test_criterion_3_two_color_pipeline():
    """construct2 certifies or fails exhaustively on the oracle battery.

    Three structural oracles plus fifty seeded hashes, each at N=12, m=4.
    Certificates are re-verified here by recomputing every pairwise sum
    (doubles included) against a fresh oracle instance; failures must be
    flagged as complete scans.  On this battery every oracle certifies,
    a fact recorded from the first full run.
    """
    t0 = time.monotonic()
    names = ["four-count", "support-size", "floor-sum"]
    names += [f"seeded-hash:{seed}" for seed in range(50)]
    certified = 0
    for name in names:
        cert = construct2(make_oracle(name, 2), 12, 4)
        if isinstance(cert, PipelineFailure):
            assert cert.exhaustive, f"{name}: non-exhaustive failure"
            continue
        xs = list(cert.witness.vectors)
        fresh = make_oracle(name, 2)
        colors = {fresh.color(x + y) for i, x in enumerate(xs) for y in xs[i:]}
        assert colors == {cert.witness.color}, name
        certified += 1
    assert certified == len(names)
    announce(3, 60.0, time.monotonic() - t0, f"{certified}/{len(names)} oracles certified and re-verified")


# ---------------------------------------------------------------------------
# 4. pigeonhole totality


def test_criterion_4_pigeonhole_totality():
    """Every two-color triple lands in a case whose coincidence holds, and
    every level coloring with fewer colors than levels has a repeat."""
    t0 = time.monotonic()
    for rho in product((0, 1), repeat=3):
        case = case_of(*rho)
        if case is Case.CASE1:
            assert rho[0] == rho[1]
        elif case is Case.CASE2:
            assert rho[0] == rho[2]
        else:
            assert rho[1] == rho[2]
    maps = 0
    for r in range(1, 6):
        candidates = [(a, b) for a in range(r + 1) for b in range(a + 1, r + 1)]
        for rho in product(range(r), repeat=r + 1):
            l_prime, l = pigeonhole_pair(rho)
            assert 0 <= l_prime < l <= r and rho[l_prime] == rho[l]
            first = next(p for p in candidates if rho[p[0]] == rho[p[1]])
            assert (l_prime, l) == first
            maps += 1
    announce(4, 1.0, time.monotonic() - t0, f"8 triples plus {maps} level maps, r up to 5")


# ---------------------------------------------------------------------------
# 5. homogeneous search cross-validation


def test_criterion_5_homogeneous_search():
    """brute_homogeneous agrees with a from-scratch triangle enumerator.

    Six points admit no triangle-free 2-coloring of pairs, so all 2^15
    colorings must yield a monochromatic triple; the pentagon coloring of
    five points is the classical witness that five do not.
    """
    t0 = time.monotonic()
    pairs = list(combinations(range(6), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    triples = list(combinations(range(6), 3))
    for mask in range(2**15):
        colors = [(mask >> i) & 1 for i in range(15)]

        def evaluate(t, colors=colors):
            return colors[pair_index[t]]

        found = brute_homogeneous(
            TupleColoring(arity=2, colors=2, universe=6, evaluate=evaluate), 3
        )
        assert isinstance(found, HomogeneousSet), f"no triple at mask {mask}"
        a, b, c = found.members
        seen = {colors[pair_index[p]] for p in ((a, b), (a, c), (b, c))}
        assert seen == {found.color}
        # independent existence check, straight off the mask
        assert any(
            colors[pair_index[(x, y)]] == colors[pair_index[(x, z)]] == colors[pair_index[(y, z)]]
            for x, y, z in triples
        )
    # pentagon: color by cyclic distance, the unique triangle-free pattern
    def pentagon(t):
        return 0 if t[1] - t[0] in (1, 4) else 1

    out = brute_homogeneous(
        TupleColoring(arity=2, colors=2, universe=5, evaluate=pentagon), 3
    )
    assert isinstance(out, NoHomogeneousSet) and out.exhaustive
    for x, y, z in combinations(range(5), 3):
        cs = {pentagon(p) for p in ((x, y), (x, z), (y, z))}
        assert len(cs) == 2, "pentagon grew a monochromatic triple"
    announce(5, 60.0, time.monotonic() - t0, "32768 colorings certified, pentagon refused")


# ---------------------------------------------------------------------------
# 6. general pipeline at r=3


def saturation_holds_exhaustively(oracle, sys) -> int:
    """Re-check the saturation law tuple by tuple, from raw positions.

    Enumerates candidate tuples as bare position products, filters with the
    public canonicality predicates, and compares each color against the
    hand-built TOP-saturated form.  Cross-checks its own tuple count against
    the library iterator so neither enumeration can silently skip cases.
    Returns the number of tuples checked.
    """
    checked = 0
    fams = sys.families
    tops = tuple(f.top for f in fams)
    for l in range(sys.r + 1):
        s = make_string(sys.r, l)
        level_seen = 0
        index_pools = [list(range(len(fams[k].members))) + [TOP] for k in range(sys.r)]
        primed_pools = [list(range(len(fams[k].members))) + [TOP] for k in range(l)]
        for index in product(*index_pools):
            for primed in product(*primed_pools):
                try:
                    t = canonical_tuple(fams, l, index, primed)
                except ValueError:
                    continue
                if not is_l_canonical(t, fams, l)[0]:
                    continue
                if not is_index_strictly_increasing(t):
                    continue
                flat = []
                for k in range(sys.r):
                    if k < l:
                        flat.extend((fams[k].members[index[k]], tops[k]))
                    else:
                        flat.append(tops[k])
                assert oracle.color(star(s, t.entries)) == oracle.color(star(s, tuple(flat)))
                level_seen += 1
        library = sum(1 for _ in iter_canonical_tuples(fams, l, index_strict=True))
        assert library == level_seen, (l, library, level_seen)
        checked += level_seen
    return checked


def test_criterion_6_general_pipeline():
    """construct_r certifies six distinct level profiles plus one oracle
    that forces a genuine shrink, and saturation survives on every output."""
    t0 = time.monotonic()
    profiles = [
        (0, 0, 1, 2),
        (0, 1, 0, 2),
        (0, 1, 2, 0),
        (1, 0, 0, 2),
        (1, 0, 2, 0),
        (1, 2, 0, 0),
    ]
    pairs_seen = set()
    tuples_checked = 0
    for profile in profiles:
        oracle = profile_oracle(3, profile)
        cert = construct_r(oracle, 3, 24, 6)
        assert cert.rho_levels == profile
        pairs_seen.add((cert.l_prime, cert.l))
        xs = list(cert.witness.vectors)
        colors = {oracle.color(v) for v in sumset(xs)}
        assert colors == {cert.witness.color} == {profile[cert.l]}
        tuples_checked += saturation_holds_exhaustively(oracle, cert.families)
    assert len(pairs_seen) == 6
    # order-dependent oracle: levels are not constant up front, so the
    # interleaved shrink and the final position homogenization must run
    sys0 = system_from_universe(3, 45)
    cut = PositionCutOracle(3, sys0, cut=9)
    cert = construct_r(cut, 3, 45, 3)
    xs = list(cert.witness.vectors)
    assert {cut.color(v) for v in sumset(xs)} == {cert.witness.color}
    tuples_checked += saturation_holds_exhaustively(cut, cert.families)
    announce(6, 300.0, time.monotonic() - t0, f"7 certificates, {tuples_checked} saturation tuples")


# ---------------------------------------------------------------------------
# 7. support assignment checkers


def test_criterion_7_support_checkers():
    """Generated assignments are always coherent; damaged ones never are.

    One hundred deterministic configurations across the size grid, then one
    single-point mutation each: dropping a shared kernel point from one
    support, which every coherent reading of the laws must reject.
    """
    t0 = time.monotonic()
    caught = 0
    for i in range(100):
        size = (i % 8) + 1
        start, stride = i % 5, 1 + (i % 3)
        E = tuple(start + j * stride for j in range(size))
        d = (i % 3) + 1
        pad = {0: 1 + (i % 2), 1: i % 3}
        if d >= 2 and size >= 2:
            pad[2] = (i + 1) % 2
        assignment = generate_canonical(E, d, pad)
        cl3 = check_cl3(assignment)
        for report in (cl3, check_cl4(assignment, cl3)):
            assert not report.violations and not report.precondition_failures, (i, report.describe())
        # the empty set's kernel sits inside every support; removing one of
        # its points from a single nonempty support must break the meet law
        kernel = set(support_of(assignment, ()))
        target = next(u for u in assignment.domain() if u)
        victim = min(p for p in support_of(assignment, target) if p in kernel)
        mutated = with_support(
            assignment, target, tuple(p for p in support_of(assignment, target) if p != victim)
        )
        m3 = check_cl3(mutated)
        m4 = check_cl4(mutated, m3)
        assert m3.violations or m4.violations or m4.precondition_failures, (i, E, d, pad)
        caught += 1
    announce(7, 60.0, time.monotonic() - t0, f"100 generated coherent, {caught}/100 mutations caught")


# ---------------------------------------------------------------------------
# 8. threshold scan against an independent oracle


def test_criterion_8_threshold_oracle():
    """The optimized scanner must reproduce a plain exhaustive oracle.

    The oracle below was written first and scans every coloring as a bit
    mask with no pruning or symmetry breaking; its verdicts for M <= 16
    (least forced universe 14) were recorded before the scanner existed
    and are frozen here.
    """
    t0 = time.monotonic()

    def oracle_verdicts(M_max: int) -> list[str]:
        verdicts = []
        for M in range(1, M_max + 1):
            witness_sets = list(combinations(range(1, M // 2 + 1), 2))
            sum_sets = [sorted({a + b, 2 * a, 2 * b}) for a, b in witness_sets]
            escapable = False
            for mask in range(2**M):
                # mask bit v-1 is the color of v
                mono = any(
                    len({(mask >> (v - 1)) & 1 for v in sums}) == 1 for sums in sum_sets
                )
                if not mono:
                    escapable = True
                    break
            verdicts.append(ESCAPABLE if escapable else FORCED)
        return verdicts

    expected = oracle_verdicts(16)
    assert [v == FORCED for v in expected].index(True) + 1 == 14
    records = threshold_scan(2, 2, 16)
    assert [rec.verdict for rec in records] == expected
    for rec in records:
        if rec.verdict != ESCAPABLE:
            continue
        # re-verify each witness straight from its colors
        colors = rec.witness.colors
        for a, b in combinations(range(1, rec.M // 2 + 1), 2):
            assert len({colors[s - 1] for s in (a + b, 2 * a, 2 * b)}) > 1
    singles = threshold_scan(1, 2, 8)
    # one point can never split its own double, so every universe that
    # admits a witness at all is forced; M=1 admits none
    assert singles[0].verdict == ESCAPABLE
    assert all(rec.verdict == FORCED for rec in singles[1:])
    announce(8, 600.0, time.monotonic() - t0, "scanner matches the mask oracle, least forced M=14")


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical primary outputs,
    regardless of worker count."""
    t0 = time.monotonic()

    def run(args, out):
        assert main(args + ["--out", str(out)]) == EXIT_OK
        return out

    def identical(a, b):
        return filecmp.cmp(a, b, shallow=False)

    compared = 0
    jobs = {
        "construct2": ["construct2", "--oracle", "four-count", "--n", "12", "--m", "4"],
        "seeded": ["construct2", "--oracle", "seeded-hash", "--seed", "7", "--n", "12", "--m", "4"],
        "construct-r": ["construct-r", "--oracle", "constant:1", "--r", "3", "--n", "24", "--m", "6"],
        "ramsey": ["ramsey", "--oracle", "four-count", "--r", "2", "--level", "1",
                   "--n", "10", "--m", "3", "--method", "greedy"],
        "deltasys": ["deltasys", "--E", "0,2,5,6", "--d", "2", "--pad", "1,2"],
    }
    for stem, args in jobs.items():
        first = run(list(args), tmp_path / f"{stem}-a.json")
        second = run(list(args), tmp_path / f"{stem}-b.json")
        assert identical(first, second), stem
        compared += 1

    scan_dirs = []
    for label, workers in (("one-a", "1"), ("one-b", "1"), ("two", "2")):
        d = tmp_path / label
        d.mkdir()
        run(["search", "--k", "2", "--r", "2", "--m-max", "10", "--workers", workers],
            d / "scan.csv")
        scan_dirs.append(d)
    baseline = scan_dirs[0]
    names = sorted(p.name for p in baseline.iterdir())
    assert any(name.startswith("scan-bad-") for name in names)
    for other in scan_dirs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert identical(baseline / name, other / name), name
            compared += 1
    announce(9, 120.0, time.monotonic() - t0, f"{compared} byte-identical comparisons, workers 1 and 2")
