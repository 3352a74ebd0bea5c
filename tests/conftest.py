"""Helpers shared between the module tests and the acceptance battery.

The pipelines get exercised against colorings with engineered structure:
some make every stage succeed for a predictable reason, others break one
specific stage on purpose.  They are ordinary ColoringOracles; they live
here so the per-module tests and test_acceptance use the same copies.
level_pattern_table builds the tables behind profile_oracle.
ORDER_INVARIANT_DESCRIPTORS names one oracle of each kind that declares
order_invariant, and undeclared re-classes an oracle so that it no
longer declares it.  outcome_of turns a call into what it returns or
raises, so that two calls can be compared either way.  support_of and
with_support read and mutate a SupportAssignment for the
coherence-checker tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from sumsetlab.deltasys import SupportAssignment
from sumsetlab.oracle import ColoringOracle, LookupTableOracle, OrderInvariantOracle
from sumsetlab.pattern import make_string, star


class ContainsFourOracle(ColoringOracle):
    """Color 0 iff some entry equals 4.

    For r=2 the first two derived colorings are then constantly 0 (both
    patterns contain a 4), which drives the pair-level construction branch
    where every witness sum either doubles a 4-pattern or lands one on the
    shared top coordinate.
    """

    def __init__(self, r: int = 2):
        super().__init__(r, "contains-four")

    def _color_impl(self, v):
        return 0 if any(value == 4 for _, value in v.items()) else 1


class PositionCutOracle(ColoringOracle):
    """Colors a level pattern by the family positions of its unprimed pairs.

    The color is 1 when any unprimed entry of a paired block sits at or
    above the cut position of its original family.  Replacements only ever
    swap a primed or single entry, so every shrink candidate is acceptable,
    while the final homogenization has to genuinely select member positions
    on one side of the cut.
    """

    def __init__(self, r: int, sys0, cut: int):
        super().__init__(r, f"position-cut:{cut}")
        self._pos = {f.members[p]: p for f in sys0.families for p in range(f.size)}
        self._cut = cut

    def _color_impl(self, v):
        values = v.values_in_order()
        l = sum(1 for value in values if value == 2) // 2
        support = v.support
        unprimed = [support[2 * k] for k in range(l)]
        return 1 if any(self._pos[i] >= self._cut for i in unprimed) else 0


class PrimedTopOracle(ColoringOracle):
    """Colors by whether a paired block's primed entry is a family top.

    Substituting any member for a top flips the color of every tuple whose
    primed entry was that top, so no replacement candidate can ever agree
    and the shrink recursion fails in its very first round.
    """

    def __init__(self, r: int, sys0):
        super().__init__(r, "primed-top")
        self._tops = {f.top for f in sys0.families}

    def _color_impl(self, v):
        values = v.values_in_order()
        l = sum(1 for value in values if value == 2) // 2
        support = v.support
        return 1 if any(support[2 * k + 1] in self._tops for k in range(l)) else 0


def level_pattern_table(r: int, profile: Sequence[int]) -> dict[str, int]:
    """Table mapping the squashed level-l star pattern to profile[l], l <= r.

    Wrapped in an OrderInvariantOracle this realizes any prescribed vector
    of level colors, which is how the general pipeline is exercised against
    arbitrary pigeonhole situations.
    """
    if len(profile) != r + 1:
        raise ValueError(f"profile must list {r + 1} colors, got {len(profile)}")
    table = {}
    for l, color in enumerate(profile):
        s = make_string(r, l)
        table[star(s, range(len(s))).serialize()] = color
        table[star(s, range(len(s))).scale("1/2").serialize()] = color
    return table


def profile_oracle(r: int, profile) -> OrderInvariantOracle:
    """Order-invariant oracle whose level colors are exactly ``profile``.

    Level patterns (whole and halved) are looked up in a strict table, so
    any vector outside the expected shapes raises instead of fabricating a
    color.
    """
    return OrderInvariantOracle(LookupTableOracle(r, level_pattern_table(r, profile)))


# One descriptor per make_oracle kind that declares order_invariant.
ORDER_INVARIANT_DESCRIPTORS = (
    "support-size",
    "four-count",
    "floor-sum",
    "constant:1",
    "order-invariant-wrapper:seeded-hash:7",
)


def undeclared(oracle: ColoringOracle) -> ColoringOracle:
    """The same oracle as an instance of a subclass that does not declare
    order_invariant, so every level tuple is colored through star."""
    cls = type(oracle)
    oracle.__class__ = type(f"Undeclared{cls.__name__}", (cls,), {"order_invariant": False})
    return oracle


def outcome_of(call):
    """The value a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def support_of(assignment: SupportAssignment, u: Iterable[int]) -> tuple[int, ...]:
    """W(u); KeyError when u is outside the domain."""
    key = frozenset(u)
    if key not in assignment.W:
        raise KeyError(f"{tuple(sorted(key))} is outside the domain")
    return assignment.W[key]


def with_support(
    assignment: SupportAssignment, u: Iterable[int], support: Iterable[int]
) -> SupportAssignment:
    """A copy of the assignment with the support of u replaced."""
    table = dict(assignment.W)
    table[frozenset(u)] = tuple(sorted(support))
    return SupportAssignment(E=assignment.E, d=assignment.d, W=table)
