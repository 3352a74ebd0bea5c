"""Finite coherence checkers for support assignments, and their generator.

A SupportAssignment maps every subset u of a finite index set E with
|u| <= d to a finite support W(u) containing u.  Two combinatorial laws
make such an assignment coherent:

  CL3: W(u) and W(v) intersect exactly in W(u & v), for all u, v;
  CL4: whenever (u2, u1, <) and (u2', u1', <) are isomorphic as ordered
       pairs-of-sets, the order isomorphism of W(u2) onto W(u2') restricts
       on W(u1) to the order isomorphism of W(u1) onto W(u1'); moreover
       the order isomorphism of W(u) onto W(v) carries u to v.

check_cl4 takes the caller's CL3 report and treats CL3 together with type
uniformity (|u| = |v| implies |W(u)| = |W(v)|) as preconditions, reporting
their failures separately from genuine restriction-law violations.  Under
them CL4 is a statement about ranks, which is how check_cl4 decides it:
CL3 puts W(u1) inside W(u2) whenever u1 is inside u2, so the restriction
law for (u1, u2, u1', u2') holds exactly when W(u1) takes the same ranks
inside W(u2) as W(u1') takes inside W(u2'), and h(u) = v holds exactly
when u takes the same ranks in W(u) as v takes in W(v).

generate_canonical builds coherent instances: W(u) is u plus one block of
fresh points per subset w of u, where blocks are consecutive integer runs
above max(E), allocated in a slot order keyed by (rank of max(w), |w|,
colex rank of w) with the empty set first.  The key compares subsets of a
common u the same way it compares their images under any order isomorphism
of u, which is exactly what CL4 needs; blocks never collide, so CL3 holds
by construction.  Both checkers re-verify every generated instance in
tests rather than trusting the argument above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .qvec import QVec


@dataclass(frozen=True)
class OrderIso:
    """The unique order-preserving bijection between two equal-size index
    sets, realized by matching ranks."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        for name, side in (("source", self.source), ("target", self.target)):
            if any(a >= b for a, b in zip(side, side[1:])):
                raise ValueError(f"{name} must be strictly increasing, got {side}")
        if len(self.source) != len(self.target):
            raise ValueError(
                f"size mismatch: |source|={len(self.source)}, |target|={len(self.target)}"
            )

    def __call__(self, index: int) -> int:
        try:
            return self.target[self.source.index(index)]
        except ValueError:
            raise ValueError(f"{index} is not in the source {self.source}") from None

    def map_set(self, indices: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self(i) for i in indices))


def order_iso(source: Iterable[int], target: Iterable[int]) -> OrderIso:
    return OrderIso(source=tuple(sorted(source)), target=tuple(sorted(target)))


def relabel(v: QVec, h: OrderIso) -> QVec:
    """Push a vector along an order isomorphism: result(h(i)) = v(i)."""
    missing = [i for i in v.support if i not in h.source]
    if missing:
        raise ValueError(f"support escapes the source at {missing}")
    return QVec({h(i): v.value(i) for i in v.support})


def _as_subset(u: Iterable[int]) -> frozenset[int]:
    return frozenset(u)


def _sorted_subset(u: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(u))


@dataclass(frozen=True)
class SupportAssignment:
    """W: [E]^(<= d) -> finite index sets with u <= W(u), full domain."""

    E: tuple[int, ...]
    d: int
    W: Mapping[frozenset[int], tuple[int, ...]]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.E, self.E[1:])):
            raise ValueError(f"E must be strictly increasing, got {self.E}")
        if self.d < 0:
            raise ValueError("dimension must be nonnegative")
        table = {_as_subset(u): tuple(sorted(support)) for u, support in self.W.items()}
        expected = set(self.domain_subsets(self.E, self.d))
        if set(table) != expected:
            missing = sorted(map(_sorted_subset, expected - set(table)))
            extra = sorted(map(_sorted_subset, set(table) - expected))
            raise ValueError(f"domain mismatch: missing {missing}, extra {extra}")
        for u, support in table.items():
            if len(set(support)) != len(support):
                raise ValueError(f"support of {_sorted_subset(u)} repeats a point")
            if not u <= set(support):
                raise ValueError(
                    f"{_sorted_subset(u)} escapes its own support {support}"
                )
        object.__setattr__(self, "W", table)

    @staticmethod
    def domain_subsets(E: Sequence[int], d: int) -> list[frozenset[int]]:
        return [
            frozenset(c) for size in range(min(d, len(E)) + 1) for c in combinations(E, size)
        ]

    def domain(self) -> list[tuple[int, ...]]:
        return sorted((_sorted_subset(u) for u in self.W), key=lambda t: (len(t), t))

    def to_payload(self) -> dict:
        return {
            "E": list(self.E),
            "d": self.d,
            "W": [
                {"u": list(u), "support": list(self.W[frozenset(u)])}
                for u in self.domain()
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SupportAssignment":
        table = {
            frozenset(entry["u"]): tuple(entry["support"]) for entry in payload["W"]
        }
        return cls(E=tuple(payload["E"]), d=int(payload["d"]), W=table)

    @classmethod
    def loads(cls, text: str) -> "SupportAssignment":
        return cls.from_payload(json.loads(text))


@dataclass(frozen=True)
class CheckReport:
    law: str
    violations: tuple[str, ...]
    precondition_failures: tuple[str, ...] = ()
    checks: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations and not self.precondition_failures

    def describe(self) -> str:
        if self.clean:
            return f"{self.law}: clean ({self.checks} checks)"
        lines = [
            f"{self.law}: {len(self.violations)} violations, "
            f"{len(self.precondition_failures)} precondition failures"
        ]
        lines += [f"  precondition: {p}" for p in self.precondition_failures]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_cl3(assignment: SupportAssignment) -> CheckReport:
    """Intersection law over every unordered pair of domain sets."""
    violations = []
    checks = 0
    subsets = sorted(assignment.W, key=lambda u: (len(u), sorted(u)))
    for u, v in combinations_with_replacement(subsets, 2):
        checks += 1
        meet = tuple(sorted(set(assignment.W[u]) & set(assignment.W[v])))
        expected = assignment.W[u & v]
        if meet != expected:
            violations.append(
                f"W({_sorted_subset(u)}) & W({_sorted_subset(v)}) = {meet}, "
                f"but W({_sorted_subset(u & v)}) = {expected}"
            )
    return CheckReport(law="CL3", violations=tuple(violations), checks=checks)


def _ranks(inner: Sequence[int], outer: Sequence[int]) -> tuple[int, ...]:
    """Ranks inside the increasing tuple outer of the points of inner."""
    rank = {x: i for i, x in enumerate(outer)}
    return tuple(rank[x] for x in inner)


def check_cl4(assignment: SupportAssignment, cl3: CheckReport) -> CheckReport:
    """Restriction law plus h(u) = v, with CL3 and type uniformity as
    separately reported preconditions.  cl3 is the caller's
    check_cl3(assignment) report; it is not re-computed here.

    Once they hold, both clauses reduce to comparing rank tuples.  For
    u1 inside u2, CL3 gives W(u1) = W(u1) & W(u2), so W(u1) lies inside
    W(u2); type uniformity gives equal sizes to the supports being matched.
    The order isomorphism of W(u2) onto W(u2') then restricts on W(u1) to
    that of W(u1) onto W(u1') exactly when W(u1) has the same ranks inside
    W(u2) as W(u1') has inside W(u2'); and h(W(u), W(v)) sends u to v
    exactly when u has the same ranks in W(u) as v has in W(v).  Each rank
    tuple is computed once.  The pairs are visited as quadruples
    (u1, u2, u1', u2') with u1, u1' at the same positions of u2, u2', one
    check each, and OrderIso objects are built only to describe a failure.
    """
    preconditions = []
    if not cl3.clean:
        preconditions.append(f"CL3 fails first: {len(cl3.violations)} violations")
    sizes_by_type: dict[int, dict[int, list]] = {}
    for u, support in assignment.W.items():
        sizes_by_type.setdefault(len(u), {}).setdefault(len(support), []).append(u)
    for size, groups in sorted(sizes_by_type.items()):
        if len(groups) > 1:
            detail = ", ".join(
                f"|W|={w} for {sorted(map(_sorted_subset, us))}" for w, us in sorted(groups.items())
            )
            preconditions.append(f"type uniformity fails at |u|={size}: {detail}")
    if preconditions:
        return CheckReport(
            law="CL4", violations=(), precondition_failures=tuple(preconditions), checks=0
        )

    W = assignment.W
    violations = []
    checks = 0
    by_size: dict[int, list[frozenset[int]]] = {}
    for u in W:
        by_size.setdefault(len(u), []).append(u)
    ordered_by_size = [
        (size, sorted(sets, key=_sorted_subset)) for size, sets in sorted(by_size.items())
    ]
    for _, ordered in ordered_by_size:
        own = {u: _ranks(_sorted_subset(u), W[u]) for u in ordered}
        for u in ordered:
            for v in ordered:
                checks += 1
                if own[u] != own[v]:
                    image = order_iso(W[u], W[v]).map_set(u)
                    violations.append(
                        f"h(W({_sorted_subset(u)}), W({_sorted_subset(v)})) sends "
                        f"{_sorted_subset(u)} to {image}, not {_sorted_subset(v)}"
                    )
    for size, ordered in ordered_by_size:
        positions_list = [
            positions for k in range(size + 1) for positions in combinations(range(size), k)
        ]
        # For each u2, the subsets u1 taken at each position set, and the
        # ranks of W(u1) inside W(u2).
        u1s = {}
        nested = {}
        for u2 in ordered:
            big = _sorted_subset(u2)
            u1s[u2] = [frozenset(big[p] for p in positions) for positions in positions_list]
            nested[u2] = [_ranks(W[u1], W[u2]) for u1 in u1s[u2]]
        for u2 in ordered:
            for u2p in ordered:
                for u1, u1p, ranks, ranksp in zip(u1s[u2], u1s[u2p], nested[u2], nested[u2p]):
                    checks += 1
                    if ranks == ranksp:
                        continue
                    outer = order_iso(W[u2], W[u2p])
                    law = order_iso(W[u1], W[u1p])
                    where = sorted(i for i in W[u1] if outer(i) != law(i))
                    violations.append(
                        f"restriction of h(W({_sorted_subset(u2)}), W({_sorted_subset(u2p)})) "
                        f"to W({_sorted_subset(u1)}) disagrees with "
                        f"h(W({_sorted_subset(u1)}), W({_sorted_subset(u1p)})) at {where}"
                    )
    return CheckReport(law="CL4", violations=tuple(violations), checks=checks)


class UniverseExhausted(ValueError):
    """Raised when fresh points would spill past the declared universe."""


def _slot_key(E: Sequence[int], w: frozenset[int]):
    """Allocation order of kernel blocks.

    Compares subsets of any common u the same way it compares their images
    under an order isomorphism of u: by rank of the maximum (empty set
    first), then size, then colex on ranks.
    """
    if not w:
        return (-1, 0, ())
    ranks = sorted(E.index(x) for x in w)
    return (ranks[-1], len(w), tuple(reversed(ranks)))


def generate_canonical(
    E: Iterable[int],
    d: int,
    pad: Mapping[int, int] | Sequence[int],
    universe: int | None = None,
) -> SupportAssignment:
    """Coherent assignment with pad(|w|) fresh points per subset w.

    Fresh points are consecutive integers above max(E), one block per
    domain subset in slot order; W(u) is u together with the blocks of all
    subsets of u.  Raises UniverseExhausted when a block would reach the
    declared universe bound.
    """
    elements = tuple(sorted(E))
    if len(set(elements)) != len(elements):
        raise ValueError("E repeats an element")
    if isinstance(pad, Mapping):
        pad_counts = {int(s): int(c) for s, c in pad.items()}
    else:
        pad_counts = {s: int(c) for s, c in enumerate(pad)}
    if any(c < 0 for c in pad_counts.values()):
        raise ValueError("pad counts must be nonnegative")
    subsets = SupportAssignment.domain_subsets(elements, d)
    kernels: dict[frozenset[int], tuple[int, ...]] = {}
    cursor = (max(elements) + 1) if elements else 0
    for w in sorted(subsets, key=lambda w: _slot_key(elements, w)):
        count = pad_counts.get(len(w), 0)
        block = tuple(range(cursor, cursor + count))
        if universe is not None and cursor + count > universe:
            raise UniverseExhausted(
                f"kernel of {_sorted_subset(w)} needs points {block} beyond universe {universe}"
            )
        kernels[w] = block
        cursor += count
    table = {}
    for u in subsets:
        fresh = [point for w in subsets if w <= u for point in kernels[w]]
        table[u] = tuple(sorted(set(u) | set(fresh)))
    return SupportAssignment(E=elements, d=d, W=table)
