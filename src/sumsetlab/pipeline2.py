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

Doubles and pairwise sums of each family land back on whole-pattern vectors
covered by the matched pair of constants; the identities are re-derived
symbolically for every emitted pair, and verify_witness then re-colors
every sum from scratch.  Note the CASE3 string is s_1, the length-3 string
(2, 2, 4): halving it doubles back to s_1 itself on the same three indices,
while cross sums fill out s_2 on four indices.

Each d_l is a TupleColoring over oracle.derived, the single place where a
level tuple becomes a vector; its index-tuple memo is the only cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .oracle import ColoringOracle, WitnessCertificate, derived, verify_witness
from .pattern import make_string, star
from .qvec import QVec
from .ramsey import HomogeneousSet, NoHomogeneousSet, TupleColoring, multi_homogeneous


class Case(enum.Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"
    CASE3 = "CASE3"


CASE_NOTES = {
    Case.CASE3: "CASE3 halves the length-3 string (2,2,4); doubles recover it exactly"
}


def case_of(rho0: int, rho1: int, rho2: int) -> Case:
    """First matching coincidence among three constants in two colors."""
    if rho0 == rho1:
        return Case.CASE1
    if rho0 == rho2:
        return Case.CASE2
    if rho1 == rho2:
        return Case.CASE3
    raise ValueError(f"no coincidence among ({rho0}, {rho1}, {rho2}); not a 2-coloring?")


@dataclass(frozen=True)
class Pipeline2Certificate:
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
            "X": [v.serialize() for v in self.witness.vectors],
            "sums": self.witness.sums_payload(),
        }
        note = CASE_NOTES.get(self.case)
        if note:
            payload["notes"] = note
        return payload


@dataclass(frozen=True)
class Pipeline2Failure:
    stage: str
    reason: str
    exhaustive: bool
    level: int | None = None


def derived_tuple_colorings(oracle: ColoringOracle, universe: int) -> list[TupleColoring]:
    """The r + 1 derived colorings d_0 .. d_r as tuple colorings over range(universe)."""
    return [
        TupleColoring(
            arity=oracle.r + l,
            colors=oracle.r,
            universe=universe,
            evaluate=lambda tup, l=l: derived(oracle, l, tup),
            name=f"d_{l}",
        )
        for l in range(oracle.r + 1)
    ]


def _case_witnesses(case: Case, members: tuple[int, ...], top: int, m: int) -> list[QVec]:
    s0, s1, s2 = (make_string(2, l) for l in range(3))
    half = "1/2"
    if case is Case.CASE1:
        xs = [star(s0, (members[i], top)).scale(half) for i in range(m)]
        for i, x in enumerate(xs):
            assert x + x == star(s0, (members[i], top))
            for j in range(i + 1, m):
                assert x + xs[j] == star(s1, (members[i], members[j], top))
        return xs
    if case is Case.CASE2:
        xs = [star(s0, (members[2 * i], members[2 * i + 1])).scale(half) for i in range(m // 2)]
        for i, x in enumerate(xs):
            assert x + x == star(s0, (members[2 * i], members[2 * i + 1]))
            for j in range(i + 1, m // 2):
                pair_i = (members[2 * i], members[2 * i + 1])
                pair_j = (members[2 * j], members[2 * j + 1])
                assert x + xs[j] == star(s2, pair_i + pair_j)
        return xs
    xs = [star(s1, (members[0], members[1], members[i + 2])).scale(half) for i in range(m - 2)]
    for i, x in enumerate(xs):
        assert x + x == star(s1, (members[0], members[1], members[i + 2]))
        for j in range(i + 1, m - 2):
            assert x + xs[j] == star(
                s2, (members[0], members[1], members[i + 2], members[j + 2])
            )
    return xs


def _case_color(case: Case, rho: tuple[int, int, int]) -> int:
    if case is Case.CASE1:
        return rho[0]
    if case is Case.CASE2:
        return rho[0]
    return rho[1]


def construct2(oracle: ColoringOracle, n: int, m: int, budget: int | None = None):
    """Run the full two-color pipeline over the universe range(n).

    Returns a Pipeline2Certificate, or a Pipeline2Failure whose exhaustive
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
        return Pipeline2Failure(
            stage="homogenize",
            reason=found.reason,
            exhaustive=found.exhaustive,
            level=found.level,
        )
    assert isinstance(found, HomogeneousSet)
    rho = found.colors
    case = case_of(*rho)
    xs = _case_witnesses(case, found.members, found.top, m)
    outcome = verify_witness(oracle, xs)
    if not isinstance(outcome, WitnessCertificate):
        raise RuntimeError(
            f"witness family failed re-verification after homogenization: {outcome.describe()}"
        )
    if outcome.color != _case_color(case, rho):
        raise RuntimeError(
            f"witness color {outcome.color} disagrees with the matched constants {rho}"
        )
    return Pipeline2Certificate(
        case=case, members=found.members, top=found.top, rho=rho, witness=outcome
    )
