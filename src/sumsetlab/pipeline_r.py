"""General witness pipeline over r disjoint index families.

The index universe is carved into r blocks, one per family, mimicking the
layout A_i = {e at offset i*width + j : j >= 1} with the top at the block's
last slot and the block's first slot left unused.  Level-l canonical tuples
draw an ordered pair from each of the first l families and a single element
from the rest; check_levels asks whether each derived coloring d_l is
constant across every index-strictly-increasing canonical tuple.

When the initial system is not level-homogeneous, two reduction steps try
to make it so.  shrink re-picks family members one at a time in round-robin
order; each pick must leave every canonical tuple's color unchanged when it
trades places with its family's top (replacement_search), and the finished
system is re-verified to satisfy the saturation law: the color of any
index-strictly-increasing canonical tuple equals the color of its
TOP-saturated form, so colors depend only on the index vector.  last_step
then homogenizes, level by level, the coloring of index vectors through
their saturated tuples, nesting the surviving position sets.

Once level constants rho_0 .. rho_r exist, two of them coincide, say at
levels l' < l, and make_witness_tuples lays out the witness frames: the
halved level-l' pattern on a_i doubles back onto a level-l' tuple while
cross sums fill a level-l tuple, so every pairwise sum is colored by the
shared constant.  halved_family asserts these identities, and
certified_witness re-colors every sum and holds it to that constant
before a certificate is issued; PipelineRCertificate.recheck re-checks
the written certificate.  A stage that comes up empty returns an
oracle.PipelineFailure; only last_step's scan can be cut off by ramsey's
budget (exhaustive=False).

Every level tuple is colored through oracle.derived, the single place
where a level tuple becomes a vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from math import inf
from typing import Iterator, Sequence

from .oracle import (
    ColoringOracle,
    PipelineFailure,
    UnsoundCertificate,
    WitnessCertificate,
    certified_witness,
    check_points,
    derived,
    make_oracle,
    recheck_witness,
)
from .pattern import (
    TOP,
    CanonicalTuple,
    IndexFamily,
    Position,
    canonical_tuple,
    families_are_laid_out,
    halved_family,
    is_index_strictly_increasing,
    is_l_canonical,
    pigeonhole_pair,
)
from .ramsey import HomogeneousSet, TupleColoring, brute_homogeneous


@dataclass(frozen=True)
class FamilySystem:
    """r index families on disjoint increasing ranges, equally sized, each
    with a top; rho holds the per-level constants once they are known."""

    families: tuple[IndexFamily, ...]
    rho: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.families:
            raise ValueError("a family system needs at least one family")
        if not families_are_laid_out(self.families):
            raise ValueError("families must occupy disjoint increasing ranges")
        sizes = {f.size for f in self.families}
        if len(sizes) != 1:
            raise ValueError(f"families must share one member count, got sizes {sorted(sizes)}")

    @property
    def r(self) -> int:
        return len(self.families)

    @property
    def member_count(self) -> int:
        return self.families[0].size

    def payload_families(self) -> list[dict]:
        return [{"members": list(f.members), "top": f.top} for f in self.families]


def layout_families(r: int, member_count: int, block: int | None = None) -> FamilySystem:
    """Contiguous blocks [i*block, (i+1)*block): first slot unused, members
    next, top at the last slot."""
    if member_count < 1:
        raise ValueError("member_count must be positive")
    width = block if block is not None else member_count + 2
    if width < member_count + 2:
        raise ValueError(f"block width {width} cannot hold {member_count} members plus a top")
    families = []
    for i in range(r):
        base = i * width
        members = tuple(base + 1 + j for j in range(member_count))
        families.append(IndexFamily(members=members, top=(i + 1) * width - 1))
    return FamilySystem(families=tuple(families))


def system_from_universe(r: int, n: int) -> FamilySystem:
    """Largest uniform layout fitting inside range(n)."""
    block = n // r
    if block < 3:
        raise ValueError(f"universe of size {n} cannot hold {r} families")
    return layout_families(r, member_count=block - 2, block=block)


def select_positions(sys: FamilySystem, positions: Sequence[int], rho=None) -> FamilySystem:
    """Restrict every family to the given member positions (same for all)."""
    chosen = sorted(positions)
    families = tuple(
        IndexFamily(members=tuple(f.members[p] for p in chosen), top=f.top)
        for f in sys.families
    )
    return FamilySystem(families=families, rho=rho)


def iter_canonical_tuples(
    families: Sequence[IndexFamily],
    l: int,
    pools: Sequence[Sequence[int]] | None = None,
    index_strict: bool = False,
    containing_top_of: int | None = None,
) -> Iterator[CanonicalTuple]:
    """Enumerate l-canonical tuples drawing positions from per-family pools.

    A pool is an ascending list of its family's member positions; the
    family's top is always available besides them.  Pools default to every
    member position.  With index_strict only index vectors that are
    strictly increasing in the finite-strict sense are generated: finite
    positions rise strictly and after the first TOP only TOP follows.
    With containing_top_of=j only tuples using the top of family j appear.
    The enumeration order is deterministic: index vectors ascend
    lexicographically with TOP last, then primed vectors likewise.  Tuples
    are built from the resolved positions, whose shape holds by
    construction, so canonical_tuple does not check them again.
    """
    r = len(families)
    if not 0 <= l <= r:
        raise ValueError(f"level {l} out of range for {r} families")
    if pools is None:
        pools = [range(f.size) for f in families]
    # A choice is a (position, coordinate index) pair; members ascend, TOP is last.
    members = [[(p, f.members[p]) for p in pool] for f, pool in zip(families, pools)]
    tops = [(TOP, f.top) for f in families]
    unprimed = [
        members[k] if k < l else [tops[k]] if containing_top_of == k else [*members[k], tops[k]]
        for k in range(r)
    ]

    def vectors(k: int, floor: float) -> Iterator[list[tuple[Position, int]]]:
        # Choices for families k.. whose finite positions exceed floor; with
        # index_strict the floor rises with each pick and is infinite after TOP.
        if k == r:
            yield []
            return
        for choice in unprimed[k]:
            p = choice[0]
            if p is TOP:
                above = inf if index_strict else floor
            elif p > floor:
                above = p if index_strict else floor
            else:
                continue
            for rest in vectors(k + 1, above):
                yield [choice, *rest]

    for vector in vectors(0, -1):
        index = tuple(p for p, _ in vector)
        coords = [e for _, e in vector]
        bound = max((p for p in index if p is not TOP), default=-1)
        singles = tuple((e,) for e in coords[l:])
        primed_choices = [
            [tops[k]]
            if containing_top_of == k
            else [*(c for c in members[k] if c[0] > bound), tops[k]]
            for k in range(l)
        ]
        # Two products over the same choices run in step: positions and coordinates.
        primed_positions = product(*([p for p, _ in choices] for choices in primed_choices))
        primed_coords = product(*([e for _, e in choices] for choices in primed_choices))
        for primed, partners in zip(primed_positions, primed_coords):
            yield CanonicalTuple(l, index, primed, (*zip(coords, partners), *singles))


@dataclass(frozen=True)
class LevelReport:
    """One level of check_levels.  tuple_count is the number of tuples
    colored: the whole level when it is constant, otherwise up to and
    including the counterexample's second tuple."""

    level: int
    constant: bool
    color: int | None
    tuple_count: int
    counterexample: tuple | None  # (tuple_a, color_a, tuple_b, color_b)


@dataclass(frozen=True)
class HomogeneityReport:
    levels: tuple[LevelReport, ...]

    @property
    def all_constant(self) -> bool:
        return all(level.constant for level in self.levels)

    @property
    def colors(self) -> tuple[int, ...]:
        if not self.all_constant:
            raise ValueError("report is not constant at every level")
        return tuple(level.color for level in self.levels)


def check_levels(oracle: ColoringOracle, sys: FamilySystem) -> HomogeneityReport:
    """Test each d_l for constancy across index-strictly-increasing
    l-canonical tuples, in iter_canonical_tuples order.

    A level stops at its counterexample: the first tuple whose color
    differs from the first tuple's.  Tuples after it are never colored, so
    a strict table oracle need not map them.
    """
    if oracle.r != sys.r:
        raise ValueError(f"oracle has r={oracle.r}, system has r={sys.r}")
    reports = []
    for l in range(sys.r + 1):
        first: tuple[CanonicalTuple, int] | None = None
        counterexample = None
        count = 0
        for t in iter_canonical_tuples(sys.families, l, index_strict=True):
            count += 1
            c = derived(oracle, l, t.entries)
            if first is None:
                first = (t, c)
            elif c != first[1]:
                counterexample = (first[0], first[1], t, c)
                break
        if count == 0:
            reports.append(
                LevelReport(level=l, constant=False, color=None, tuple_count=0, counterexample=None)
            )
        else:
            reports.append(
                LevelReport(
                    level=l,
                    constant=counterexample is None,
                    color=first[1] if counterexample is None else None,
                    tuple_count=count,
                    counterexample=counterexample,
                )
            )
    return HomogeneityReport(levels=tuple(reports))


def saturated(sys: FamilySystem, l: int, positions: Sequence[int]) -> CanonicalTuple:
    """The level-l tuple that pairs member positions[k] with the top of
    family k for k < l and sits at the top of every later family.  It is
    the only builder of saturated tuples: the saturation law compares a
    tuple with saturated(sys, l, t.index[:l]), and last_step colors
    position vectors through it."""
    return canonical_tuple(sys.families, l, (*positions, *(TOP,) * (sys.r - l)), (TOP,) * l)


def verify_saturation(oracle: ColoringOracle, sys: FamilySystem):
    """Check the saturation law on the whole system; None when it holds.

    Returns (level, tuple, color, saturated tuple, color) at the first
    index-strictly-increasing canonical tuple whose color differs from its
    TOP-saturated form.  A saturated form depends only on the level and
    the unprimed positions of the paired blocks, so each is colored once,
    and a tuple that is its own saturated form is not colored again.
    """
    saturated_forms: dict[tuple, tuple[CanonicalTuple, int]] = {}
    for l in range(sys.r + 1):
        for t in iter_canonical_tuples(sys.families, l, index_strict=True):
            key = (l, t.index[:l])
            if key not in saturated_forms:
                sat = saturated(sys, l, t.index[:l])
                saturated_forms[key] = (sat, derived(oracle, l, sat.entries))
            sat, c_sat = saturated_forms[key]
            c_t = c_sat if t == sat else derived(oracle, l, t.entries)
            if c_t != c_sat:
                return (l, t, c_t, sat, c_sat)
    return None


def replacement_search(
    oracle: ColoringOracle,
    sys: FamilySystem,
    j: int,
    pools: Sequence[Sequence[int]],
    lower: int,
    colors: dict[tuple[int, ...], int] | None = None,
) -> int | PipelineFailure:
    """Least member position of family j that can stand in for its top.

    pools are iter_canonical_tuples pools: ascending member positions, with
    every family's top available besides them.  Candidates are positions
    strictly above both lower and every position in the family's own pool.
    A candidate is accepted when, for every level l and every l-canonical
    tuple drawn from the pools that contains family j's top, trading the
    top for the candidate leaves the tuple's color unchanged.  When no
    candidate is accepted the result is an exhaustive shrink failure
    whose reason counts the candidates tried.

    colors maps the entries of tuples with the top in place to their
    color.  It is read before the oracle is asked and filled after, so a
    caller that passes one map to several searches colors each such tuple
    once; the candidate tuples are always colored afresh.
    """
    if not 0 <= j < sys.r:
        raise ValueError(f"family index {j} out of range")
    if colors is None:
        colors = {}
    floor = max([lower, *pools[j]])
    constraints = [
        (t.l, t.entries)
        for l in range(sys.r + 1)
        for t in iter_canonical_tuples(sys.families, l, pools=pools, containing_top_of=j)
    ]
    family = sys.families[j]
    candidates = range(floor + 1, sys.member_count)
    # The tuples with the top in place do not depend on the candidate.
    if candidates:
        for l, entries in constraints:
            if entries not in colors:
                colors[entries] = derived(oracle, l, entries)
    for candidate in candidates:
        member = family.members[candidate]
        if all(
            colors[entries]
            == derived(oracle, l, tuple(member if e == family.top else e for e in entries))
            for l, entries in constraints
        ):
            return candidate
    return PipelineFailure(
        stage="shrink",
        reason=f"no position above {floor} in family {j} preserves all "
        f"{len(constraints)} tuple colors ({len(candidates)} tried)",
        exhaustive=True,
        family=j,
    )


def shrink(oracle: ColoringOracle, sys: FamilySystem, target: int):
    """Round-robin re-pick of target members per family via replacement_search.

    Round k visits families 0..r-1 in order; each pick must exceed every
    position chosen so far in any family, so the per-family position
    sequences interleave globally and each pool stays ascending.  The
    resulting system is exhaustively re-verified against the saturation law
    before being returned; a failed pick returns its PipelineFailure with
    the round added.  Pools only grow, so most tuples with a top in place
    recur from one search to the next; one map of their colors serves
    every search of the call, and each is colored once.
    """
    if target < 1 or target > sys.member_count:
        raise ValueError(f"cannot shrink to {target} members from {sys.member_count}")
    pools: list[list[int]] = [[] for _ in range(sys.r)]
    colors: dict[tuple[int, ...], int] = {}
    lower = -1
    for round_number in range(target):
        for family in range(sys.r):
            picked = replacement_search(oracle, sys, family, pools, lower, colors)
            if isinstance(picked, PipelineFailure):
                return replace(picked, round=round_number)
            pools[family].append(picked)
            lower = picked
    families = tuple(
        IndexFamily(members=tuple(f.members[p] for p in pool), top=f.top)
        for f, pool in zip(sys.families, pools)
    )
    shrunk = FamilySystem(families=families)
    violation = verify_saturation(oracle, shrunk)
    if violation is not None:
        level, t, c_t, sat, c_sat = violation
        raise RuntimeError(
            f"shrink output violates the saturation law at level {level}: "
            f"{t.render()} has color {c_t} but {sat.render()} has color {c_sat}"
        )
    return shrunk


def last_step(oracle: ColoringOracle, sys: FamilySystem, final_size: int):
    """Homogenize, level by level, the index coloring through saturated tuples.

    Level l colors a strictly increasing position vector (i_0 .. i_(l-1)) by
    the saturated tuple that pairs member i_k with the top in family k and
    sits at the top elsewhere.  Surviving position sets are nested: when a
    level is not already constant, a monochromatic subset of final_size
    positions is extracted by brute force.  Returns the trimmed system with
    rho attached, re-verified by check_levels, or a PipelineFailure that
    is not exhaustive when ramsey's budget cut the brute-force scan off.
    """
    if final_size < 1 or final_size > sys.member_count:
        raise ValueError(f"final size {final_size} out of range")
    positions = list(range(sys.member_count))
    rho: list[int] = []
    for l in range(sys.r + 1):
        g = TupleColoring(
            arity=l,
            colors=oracle.r,
            universe=sys.member_count,
            evaluate=lambda v, l=l: derived(oracle, l, saturated(sys, l, v).entries),
        )
        seen = {g.color(t) for t in combinations(positions, l)}
        if len(seen) == 1:
            rho.append(seen.pop())
            continue
        found = brute_homogeneous(g, final_size, points=positions)
        if not isinstance(found, HomogeneousSet):
            return PipelineFailure(
                stage="last_step",
                reason=f"no monochromatic position set of size {final_size} at level {l}",
                exhaustive=found.exhaustive,
                level=l,
            )
        positions = list(found.members)
        rho.append(found.color)
    trimmed = select_positions(sys, positions[:final_size], rho=tuple(rho))
    report = check_levels(oracle, trimmed)
    if not report.all_constant or report.colors != tuple(rho):
        raise RuntimeError("level homogenization did not survive re-verification")
    return trimmed


def make_witness_tuples(sys: FamilySystem, l_prime: int, l: int, count: int):
    """Witness frames for a coincidence rho[l_prime] == rho[l].

    a_i pairs member k with the top in families below l_prime, walks the
    stride l - l_prime through families l_prime..l-1 starting at offset i,
    and sits at the top from family l on.  b_(i,j) is the level-l frame
    whose paired middle blocks hold the i-th and j-th walk; the sum of the
    halved patterns on a_i and a_j lands exactly on b_(i,j).
    """
    r, m = sys.r, sys.member_count
    if not 0 <= l_prime < l <= r:
        raise ValueError(f"need 0 <= l' < l <= {r}, got l'={l_prime}, l={l}")
    if m < l:
        raise ValueError(f"need at least {l} members per family, got {m}")
    stride = l - l_prime
    max_count = (m - l) // stride + 1
    if count < 0 or count > max_count:
        raise ValueError(
            f"count {count} infeasible: positions k + i*{stride} must stay below {m} "
            f"(max {max_count})"
        )
    families = sys.families
    walks = [tuple(k + i * stride for k in range(l_prime, l)) for i in range(count)]
    a_tuples = []
    for walk in walks:
        index = tuple(range(l_prime)) + walk + (TOP,) * (r - l)
        a = canonical_tuple(families, l_prime, index, (TOP,) * l_prime)
        ok, reason = is_l_canonical(a, families, l_prime)
        assert ok and is_index_strictly_increasing(a), reason
        a_tuples.append(a)
    b_tuples = {}
    for i, j in combinations(range(count), 2):
        b = canonical_tuple(families, l, a_tuples[i].index, (TOP,) * l_prime + walks[j])
        ok, reason = is_l_canonical(b, families, l)
        assert ok and is_index_strictly_increasing(b), reason
        b_tuples[i, j] = b
    return a_tuples, b_tuples


@dataclass(frozen=True)
class PipelineRCertificate:
    families: FamilySystem
    rho_levels: tuple[int, ...]
    l_prime: int
    l: int
    witness: WitnessCertificate

    @property
    def color(self) -> int:
        return self.witness.color

    def to_payload(self) -> dict:
        return {
            "kind": "construct-r",
            "families": self.families.payload_families(),
            "rho_levels": list(self.rho_levels),
            "l_prime": self.l_prime,
            "l": self.l,
            "rho": self.witness.color,
            **self.witness.payload(),
        }

    @staticmethod
    def recheck(payload: dict) -> None:
        """Check the families against the config, rebuild X on them and
        re-color every sum; level homogeneity is not re-checked.  Raises
        UnsoundCertificate, or KeyError/TypeError/ValueError if malformed."""
        config = payload["config"]
        r, m, n = config["r"], config["m"], config["n"]
        oracle = make_oracle(config["oracle"], r)
        families = FamilySystem(
            families=tuple(
                IndexFamily(members=tuple(f["members"]), top=f["top"])
                for f in payload["families"]
            )
        )
        if families.r != r or families.member_count != m:
            raise ValueError(f"need {r} families of m={m} members each")
        for family in families.families:
            check_points((*family.members, family.top), n)
        rho_levels = tuple(payload["rho_levels"])
        l_prime, l = payload["l_prime"], payload["l"]
        if not 0 <= l_prime < l <= r:
            raise ValueError(f"need 0 <= l' < l <= {r}, got l'={l_prime}, l={l}")
        if len(rho_levels) != r + 1:
            raise ValueError(f"rho_levels needs {r + 1} entries, got {len(rho_levels)}")
        if rho_levels[l_prime] != rho_levels[l] or rho_levels[l] != payload["rho"]:
            raise UnsoundCertificate(f"rho={payload['rho']} does not match the level constants")
        xs, _, _ = witness_vectors(families, l_prime, l, len(payload["X"]))
        recheck_witness(oracle, xs, payload, payload["rho"])


def witness_vectors(sys: FamilySystem, l_prime: int, l: int, count: int):
    """Halved level-l' vectors on the a-frames, with exact sum identities
    against the b-frames asserted for every pair."""
    a_tuples, b_tuples = make_witness_tuples(sys, l_prime, l, count)
    xs = halved_family(
        sys.r, l_prime, l, [a.entries for a in a_tuples], lambda i, j: b_tuples[i, j].entries
    )
    return xs, a_tuples, b_tuples


def construct_r(
    oracle: ColoringOracle,
    r: int,
    n: int,
    m: int,
    count: int | None = None,
    shrink_size: int | None = None,
):
    """Full general pipeline: layout, level homogenization, witness family.

    A system already constant at every level is trimmed and used as is;
    otherwise shrink and last_step run.  Returns a PipelineRCertificate or
    a PipelineFailure tagged with the failing stage.
    """
    if oracle.r != r:
        raise ValueError(f"oracle has r={oracle.r}, requested r={r}")
    if m < max(r, 1):
        raise ValueError(f"need m >= max(r, 1) so every level is inhabited, got m={m}")
    sys0 = system_from_universe(r, n)
    if sys0.member_count < m:
        return PipelineFailure(
            stage="layout",
            reason=f"universe {n} only affords {sys0.member_count} members per family, need {m}",
            exhaustive=True,
        )
    report = check_levels(oracle, sys0)
    if report.all_constant:
        ready = select_positions(sys0, range(m), rho=report.colors)
    else:
        target = shrink_size if shrink_size is not None else sys0.member_count // r
        if target < m:
            return PipelineFailure(
                stage="shrink",
                reason=f"initial member count {sys0.member_count} cannot interleave "
                f"{r} families down to {m} members each",
                exhaustive=True,
            )
        shrunk = shrink(oracle, sys0, target)
        if isinstance(shrunk, PipelineFailure):
            return shrunk
        ready = last_step(oracle, shrunk, m)
        if isinstance(ready, PipelineFailure):
            return ready
    rho = ready.rho
    l_prime, l = pigeonhole_pair(rho)
    max_count = (m - l) // (l - l_prime) + 1
    chosen = max_count if count is None else count
    if not 1 <= chosen <= max_count:
        return PipelineFailure(
            stage="witness",
            reason=f"count {chosen} infeasible for l'={l_prime}, l={l}, m={m} (max {max_count})",
            exhaustive=True,
        )
    xs, _, _ = witness_vectors(ready, l_prime, l, chosen)
    witness = certified_witness(oracle, xs, rho[l])
    return PipelineRCertificate(
        families=ready, rho_levels=rho, l_prime=l_prime, l=l, witness=witness
    )
