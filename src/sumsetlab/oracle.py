"""Coloring oracles over rational vectors and witness verification.

An oracle is a deterministic total map from QVecs to colors 0..r-1 standing
in for an arbitrary finite coloring of the reals.  The built-in kinds cover
the cheap structural colorings used throughout the test battery
(support-size, four-count, floor-sum), a pseudo-random family keyed by a
seed (seeded-hash, FNV-1a over the canonical serialization), explicit
tables (lookup-table in memory, external-table-file on disk, both strict
about unmapped vectors), a constant oracle, and a wrapper that forces
invariance under order isomorphisms of the coordinate indices.

Oracles are stateless: color keeps nothing between calls, so a repeated
query recomputes its answer.  The pipelines color index tuples, not
vectors, and the only cache is TupleColoring's, keyed by index tuple.
derived is the single place where a level tuple becomes a vector.

verify_witness colors every pairwise sum of a witness set X (doubles
included) and certifies one color or names two sums that disagree.
certified_witness, which also demands the claimed color, is the soundness
gate of both pipelines and of the certificate re-checks.  PipelineFailure
is what either pipeline returns when it comes up empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pattern import make_string, star
from .qvec import QVec, sumset

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; stable across runs and platforms."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFF_FFFF_FFFF_FFFF
    return h


class UnmappedVector(Exception):
    """A strict table oracle was asked about a vector outside its table."""


class ColoringOracle:
    """Base class: deterministic total coloring of QVecs with r colors."""

    def __init__(self, r: int, kind: str):
        if not isinstance(r, int) or r < 1:
            raise ValueError(f"color count must be a positive integer, got {r!r}")
        self.r = r
        self.kind = kind

    def color(self, v: QVec) -> int:
        if not isinstance(v, QVec):
            raise TypeError(f"expected a QVec, got {type(v).__name__}")
        c = self._color_impl(v)
        if not 0 <= c < self.r:
            raise RuntimeError(f"{self.kind} produced out-of-range color {c}")
        return c

    def _color_impl(self, v: QVec) -> int:
        raise NotImplementedError

    def descriptor(self) -> str:
        return self.kind


class SupportSizeOracle(ColoringOracle):
    def __init__(self, r: int):
        super().__init__(r, "support-size")

    def _color_impl(self, v: QVec) -> int:
        return len(v) % self.r


class FourCountOracle(ColoringOracle):
    def __init__(self, r: int):
        super().__init__(r, "four-count")

    def _color_impl(self, v: QVec) -> int:
        return sum(1 for _, value in v.items() if value == 4) % self.r


class FloorSumOracle(ColoringOracle):
    def __init__(self, r: int):
        super().__init__(r, "floor-sum")

    def _color_impl(self, v: QVec) -> int:
        items = v.items()
        # Level-pattern values are integers: sum their numerators and skip
        # Fraction addition.  Any other vector takes the exact path.
        if all(value.denominator == 1 for _, value in items):
            return sum(value.numerator for _, value in items) % self.r
        total = sum((value for _, value in items), start=0)
        return math.floor(total) % self.r


class SeededHashOracle(ColoringOracle):
    def __init__(self, r: int, seed: int):
        super().__init__(r, "seeded-hash")
        self.seed = int(seed)

    def _color_impl(self, v: QVec) -> int:
        return (fnv1a64(v.serialize().encode("utf-8")) ^ self.seed) % self.r

    def descriptor(self) -> str:
        return f"seeded-hash:{self.seed}"


class ConstantOracle(ColoringOracle):
    def __init__(self, r: int, value: int = 0):
        super().__init__(r, "constant")
        if not 0 <= value < r:
            raise ValueError(f"constant color {value} out of range for r={r}")
        self.value = value

    def _color_impl(self, v: QVec) -> int:
        return self.value

    def descriptor(self) -> str:
        return f"constant:{self.value}"


class LookupTableOracle(ColoringOracle):
    """Strict table oracle: unmapped vectors raise UnmappedVector."""

    def __init__(self, r: int, table: dict[str, int], kind: str = "lookup-table", path: str | None = None):
        super().__init__(r, kind)
        self.table = dict(table)
        self.path = path
        for key, value in self.table.items():
            if not 0 <= value < r:
                raise ValueError(f"table color {value} for {key!r} out of range")

    def _color_impl(self, v: QVec) -> int:
        key = v.serialize()
        if key not in self.table:
            raise UnmappedVector(f"vector {key!r} is not mapped by the table")
        return self.table[key]

    @classmethod
    def from_file(cls, path: str, r: int) -> "LookupTableOracle":
        return cls(r, read_table_file(path), kind="external-table-file", path=path)

    def descriptor(self) -> str:
        if self.kind == "external-table-file":
            return f"external-table-file:{self.path}"
        return self.kind


class OrderInvariantOracle(ColoringOracle):
    """Wrapper forcing color(v) == color(relabel(v, h)) for order isos h.

    The wrapped oracle only ever sees vectors squashed onto the initial
    segment 0..k-1, so the color can depend only on the sequence of values
    read in increasing support order.
    """

    def __init__(self, inner: ColoringOracle):
        super().__init__(inner.r, "order-invariant-wrapper")
        self.inner = inner

    def _color_impl(self, v: QVec) -> int:
        # v's values are nonzero Fractions, placed here on 0..k-1 in order.
        squashed = QVec._from_sorted(tuple(enumerate(v.values_in_order())))
        return self.inner.color(squashed)

    def descriptor(self) -> str:
        return f"order-invariant-wrapper:{self.inner.descriptor()}"


def read_table_file(path: str) -> dict[str, int]:
    """Read a table file: one 'serialized-vector<TAB>color' entry per line."""
    table: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            key, sep, value = line.rpartition("\t")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'vector<TAB>color'")
            table[key] = int(value)
    return table


def make_oracle(descriptor: str, r: int) -> ColoringOracle:
    """Build an oracle from a CLI descriptor, 'kind' or 'kind:param[,param]'."""
    kind, sep, rest = descriptor.partition(":")
    if kind == "support-size":
        return SupportSizeOracle(r)
    if kind == "four-count":
        return FourCountOracle(r)
    if kind == "floor-sum":
        return FloorSumOracle(r)
    if kind == "constant":
        return ConstantOracle(r, int(rest) if sep else 0)
    if kind == "seeded-hash":
        if not sep:
            raise ValueError("seeded-hash requires a seed, e.g. seeded-hash:42")
        return SeededHashOracle(r, int(rest))
    if kind == "lookup-table" or kind == "external-table-file":
        if not sep:
            raise ValueError(f"{kind} requires a file path")
        return LookupTableOracle.from_file(rest, r)
    if kind == "order-invariant-wrapper":
        if not sep:
            raise ValueError("order-invariant-wrapper requires an inner descriptor")
        return OrderInvariantOracle(make_oracle(rest, r))
    raise ValueError(f"unknown oracle kind {kind!r}")


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


def derived(oracle: ColoringOracle, l: int, indices: Sequence[int]) -> int:
    """d_l: color of the level-l pattern placed on the given index set.

    star rejects an index set whose length is not r + l.
    """
    return oracle.color(star(make_string(oracle.r, l), indices))


@dataclass(frozen=True)
class WitnessCertificate:
    """A witness set, its single sum color, and the full evaluation table."""

    vectors: tuple[QVec, ...]
    color: int
    table: tuple[tuple[QVec, int], ...]

    def sums_payload(self) -> list[dict]:
        return [{"vector": v.serialize(), "color": c} for v, c in self.table]

    def payload(self) -> dict:
        """The witness set X and its sum table, as certificates store them."""
        return {"X": [v.serialize() for v in self.vectors], "sums": self.sums_payload()}


@dataclass(frozen=True)
class WitnessFailure:
    """Two pairwise sums that received different colors."""

    first: tuple[QVec, int]
    second: tuple[QVec, int]

    def describe(self) -> str:
        (u, cu), (v, cv) = self.first, self.second
        return f"sum {u.serialize()!r} has color {cu} but {v.serialize()!r} has color {cv}"


def verify_witness(oracle: ColoringOracle, vectors: Iterable[QVec]):
    """Evaluate the oracle on every pairwise sum of the witness set.

    Returns a WitnessCertificate when all sums (doubles included) share one
    color, otherwise a WitnessFailure naming the first disagreement.
    """
    vs = sorted(set(vectors), key=QVec.serialize)
    if not vs:
        raise ValueError("witness set must be nonempty")
    sums = sorted(sumset(vs), key=QVec.serialize)
    table = tuple((v, oracle.color(v)) for v in sums)
    first = table[0]
    for entry in table[1:]:
        if entry[1] != first[1]:
            return WitnessFailure(first=first, second=entry)
    return WitnessCertificate(vectors=tuple(vs), color=first[1], table=table)


class UnsoundCertificate(Exception):
    """A well-formed certificate whose claim does not survive a re-check."""


def certified_witness(
    oracle: ColoringOracle, xs: Iterable[QVec], color: int
) -> WitnessCertificate:
    """verify_witness, held to a claimed sum color.

    Raises UnsoundCertificate when two sums disagree or when their single
    color is not the claimed one.
    """
    outcome = verify_witness(oracle, xs)
    if not isinstance(outcome, WitnessCertificate):
        raise UnsoundCertificate(outcome.describe())
    if outcome.color != color:
        raise UnsoundCertificate(f"sum color {outcome.color} is not the claimed {color}")
    return outcome


@dataclass(frozen=True)
class PipelineFailure:
    """A pipeline stage that came up empty; exhaustive is False when a
    budget cut its search off, so that no witness may still exist."""

    stage: str
    reason: str
    exhaustive: bool
    level: int | None = None
    round: int | None = None
    family: int | None = None


def check_points(points: Iterable[int], n: int) -> None:
    """Raise ValueError unless every point is an int in range(n)."""
    for p in points:
        if not isinstance(p, int) or not 0 <= p < n:
            raise ValueError(f"point {p!r} lies outside range({n})")


def recheck_witness(oracle: ColoringOracle, xs: Sequence[QVec], payload: dict, color: int) -> None:
    """Re-check a stored witness against X rebuilt from the certificate.

    The stored X must equal the rebuilt one, certified_witness must accept
    it with the claimed color, and the fresh sum table must match the
    stored one.  An empty stored X is malformed (ValueError); any other
    mismatch raises UnsoundCertificate.
    """
    if not payload["X"]:
        raise ValueError("the witness set X is empty")
    if sorted(x.serialize() for x in xs) != payload["X"]:
        raise UnsoundCertificate("stored X differs from the one rebuilt from the certificate")
    if certified_witness(oracle, xs, color).sums_payload() != payload["sums"]:
        raise UnsoundCertificate("stored sum table differs from a fresh evaluation")
