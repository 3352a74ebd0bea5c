"""Two-color witness pipeline: homogenize three derived colorings, then
pick one of three pigeonhole cases and emit certified witness vectors.

For a two-color oracle f the derived colorings d_0, d_1, d_2 (arities 2, 3,
4) color index tuples through the level strings (4,4), (2,2,4), (2,2,2,2).
Once a member set A = {a_0 < ... < a_(m-1)} plus top is homogeneous for all
three with constants rho_0, rho_1, rho_2, two of the constants coincide and
each coincidence admits an explicit halved-pattern witness family:

  CASE1 (rho0 = rho1): x_i = (1/2) s_0 * (a_i, top)
  CASE2 (rho0 = rho2): x_i = (1/2) s_0 * (a_2i, a_2i+1)
  CASE3 (rho1 = rho2): x_i = (1/2) s_1 * (a_0, a_1, a_(i+2))

Each case only lays out its frames; halved_family asserts that doubles and
pairwise sums (on the union of two frames) land back on whole-pattern
vectors covered by the matched pair of constants, and certified_witness
then re-colors every sum from scratch and holds it to that constant.
Note the CASE3 string is s_1, the length-3 string (2, 2, 4): halving it
doubles back to s_1 itself on the same three indices, while cross sums
fill out s_2 on four indices.  Pipeline2Certificate.recheck re-checks
the written certificate; a failed homogenization is an oracle.PipelineFailure.

Each d_l is a TupleColoring over oracle.derived, which places the level
pattern on a tuple through star; its index-tuple memo is the only cache.  A
TupleColoring only takes strictly increasing tuples from range(universe),
so for an oracle that declares order_invariant all of them share one
color per level: d_l colors the first tuple it is asked about and gives
every later one that color.
"""

from __future__ import annotations

import enum

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
from .pattern import IndexFamily, halved_family, pigeonhole_pair
from .qvec import QVec
from .ramsey import HomogeneousSet, NoHomogeneousSet, TupleColoring, multi_homogeneous
from .record import Record


class Case(enum.Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"


CASE_NOTES = {
    Case.CASE3: "CASE3 halves the length-3 string (2,2,4); doubles recover it exactly"
}

# The coincidence rho[l'] == rho[l] behind each case, as (l', l).
CASE_LEVELS = {Case.CASE1: (0, 1), Case.CASE2: (0, 2), Case.CASE3: (1, 2)}


def case_of(rho0: int, rho1: int, rho2: int) -> Case:
    """First matching coincidence among three constants in two colors."""
    pair = pigeonhole_pair((rho0, rho1, rho2))
    return next(case for case, levels in CASE_LEVELS.items() if levels == pair)


class Pipeline2Certificate(Record):
    case: Case
    members: tuple[int, ...]
    top: int
    rho: tuple[int, int, int]
    witness: WitnessCertificate

    @property
    def color(self) -> int:
        return self.witness.color

    def to_payload(self) -> dict:
        payload = {
            "kind": "construct2",
            "case": self.case.value,
            "A": list(self.members),
            "top": self.top,
            "rho": list(self.rho),
            **self.witness.payload(),
        }
        note = CASE_NOTES.get(self.case)
        if note:
            payload["notes"] = note
        return payload

    @staticmethod
    def recheck(payload: dict) -> None:
        """Check A and top against the config, rebuild X on A and re-color
        every sum; the homogeneity of A is not re-checked.  Raises
        UnsoundCertificate, or KeyError/TypeError/ValueError if malformed."""
        config = payload["config"]
        oracle = make_oracle(config["oracle"], 2)
        m, n = config["m"], config["n"]
        family = IndexFamily(members=tuple(payload["A"]), top=payload["top"])
        if family.size != m:
            raise ValueError(f"A has {family.size} entries, config says m={m}")
        check_points((*family.members, family.top), n)
        rho = tuple(payload["rho"])
        case = Case(payload["case"])
        if case_of(*rho) is not case:
            raise UnsoundCertificate(f"case {case.value} does not match rho={rho}")
        xs = _case_witnesses(case, family.members, family.top, m)
        recheck_witness(oracle, xs, payload, rho[CASE_LEVELS[case][0]])


def derived_tuple_colorings(oracle: ColoringOracle, universe: int) -> list[TupleColoring]:
    """The r + 1 derived colorings d_0 .. d_r as tuple colorings over range(universe)."""
    return [
        TupleColoring(
            arity=oracle.r + l,
            colors=oracle.r,
            universe=universe,
            evaluate=_level_evaluator(oracle, l),
        )
        for l in range(oracle.r + 1)
    ]


def _level_evaluator(oracle: ColoringOracle, l: int):
    """d_l through derived; under order_invariant, the first color is kept
    for every later tuple.  An error keeps nothing."""
    if not oracle.order_invariant:
        return lambda tup: derived(oracle, l, tup)
    kept: list[int] = []

    def evaluate(tup):
        if not kept:
            kept.append(derived(oracle, l, tup))
        return kept[0]

    return evaluate


def _case_witnesses(case: Case, members: tuple[int, ...], top: int, m: int) -> list[QVec]:
    """The case's frames on A; a cross sum fills the union of two frames."""
    if case is Case.CASE1:
        frames = [(members[i], top) for i in range(m)]
    elif case is Case.CASE2:
        frames = [(members[2 * i], members[2 * i + 1]) for i in range(m // 2)]
    else:
        frames = [(members[0], members[1], members[i + 2]) for i in range(m - 2)]
    l_prime, l = CASE_LEVELS[case]
    return halved_family(2, l_prime, l, frames, lambda i, j: sorted({*frames[i], *frames[j]}))


def construct2(oracle: ColoringOracle, n: int, m: int, budget: int | None = None):
    """Run the full two-color pipeline over the universe range(n).

    Returns a Pipeline2Certificate, or a PipelineFailure whose exhaustive
    flag tells whether the homogenization failure was a complete scan.
    """
    if oracle.r != 2:
        raise ValueError(f"pipeline requires a 2-coloring oracle, got r={oracle.r}")
    if m < 3:
        raise ValueError(f"need m >= 3 so every case yields witnesses, got {m}")
    if n < m + 1:
        raise ValueError(f"universe size {n} cannot hold {m} members plus a top")
    colorings = derived_tuple_colorings(oracle, n)
    found = multi_homogeneous(colorings, m, budget=budget)
    if isinstance(found, NoHomogeneousSet):
        return PipelineFailure(
            stage="homogenize",
            reason=found.reason,
            exhaustive=found.exhaustive,
            level=found.level,
        )
    assert isinstance(found, HomogeneousSet)
    rho = found.colors
    case = case_of(*rho)
    xs = _case_witnesses(case, found.members, found.top, m)
    witness = certified_witness(oracle, xs, rho[CASE_LEVELS[case][0]])
    return Pipeline2Certificate(
        case=case, members=found.members, top=found.top, rho=rho, witness=witness
    )
