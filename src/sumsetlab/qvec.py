"""Finitely supported rational vectors with exact arithmetic.

A QVec models an element of the direct sum of countably many copies of the
rationals: a map from coordinate indices to rational values that is nonzero
in only finitely many places.  Addition is coordinate-wise and coordinates
that cancel to zero drop out of the support.  All arithmetic is exact
(fractions.Fraction underneath); nothing here ever touches floats.

The canonical serialization is the line format used by certificates and
lookup tables: entries sorted by index, each rendered ``index:num/den`` with
the value in lowest terms, joined by commas.  The zero vector serializes to
the empty string.

A QVec is two parallel tuples: its support, the strictly increasing
natural indices where it is nonzero, and its values, the nonzero Fractions
at those indices in the same order.  support and values_in_order() return
the stored tuples, and items(), iteration, serialize and repr pair them up
on demand.  The public constructor and parse establish the invariant by
checking every entry.  _from_sorted is the one trusted constructor: it
takes a support tuple and a value tuple that already satisfy the invariant
and checks nothing, so only callers that guarantee it by construction use
it.  Those are star, the order-invariant squash, pipeline_r's level
colorer on a system of strictly increasing naturals, + (which drops every
coordinate that cancels and sorts the merged indices) and scale (a nonzero
scalar times a nonzero value is nonzero).  The hash is that of the two
tuples, computed on first use, not at construction, since most vectors
built on the hot path are colored once and never hashed; it is used only
within one process, and every output is ordered by serialize.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class QVec:
    """Immutable finitely supported vector of rationals, indexed by naturals."""

    __slots__ = ("_support", "_values", "_hash")

    def __init__(self, entries: Union[Mapping[int, RationalLike], Iterable[tuple[int, RationalLike]]] = ()):
        if isinstance(entries, Mapping):
            pairs = entries.items()
        else:
            pairs = entries
        cleaned: dict[int, Fraction] = {}
        for index, value in pairs:
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ValueError(f"index must be a natural number, got {index!r}")
            if index in cleaned:
                raise ValueError(f"duplicate index {index}")
            frac = _as_fraction(value)
            if frac != 0:
                cleaned[index] = frac
        self._support: tuple[int, ...] = tuple(sorted(cleaned))
        self._values: tuple[Fraction, ...] = tuple(map(cleaned.__getitem__, self._support))
        self._hash: int | None = None

    @classmethod
    def _from_sorted(cls, support: tuple[int, ...], values: tuple[Fraction, ...]) -> "QVec":
        """Trusted constructor: support must already be strictly increasing
        natural indices and values the nonzero Fractions at them, of equal
        length; both tuples are kept as they are."""
        v = object.__new__(cls)
        v._support = support
        v._values = values
        v._hash = None
        return v

    @property
    def support(self) -> tuple[int, ...]:
        return self._support

    def value(self, index: int) -> Fraction:
        k = bisect_left(self._support, index)
        if k < len(self._support) and self._support[k] == index:
            return self._values[k]
        return Fraction(0)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(self)

    def values_in_order(self) -> tuple[Fraction, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._support)

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return zip(self._support, self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVec):
            return NotImplemented
        return self._support == other._support and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._support, self._values))
        return self._hash

    def __add__(self, other: "QVec") -> "QVec":
        if not isinstance(other, QVec):
            return NotImplemented
        merged = dict(zip(self._support, self._values))
        for index, value in zip(other._support, other._values):
            if index in merged:
                new = merged[index] + value
                if new:
                    merged[index] = new
                else:
                    del merged[index]
            else:
                merged[index] = value
        support = tuple(sorted(merged))
        return QVec._from_sorted(support, tuple(map(merged.__getitem__, support)))

    def scale(self, scalar: RationalLike) -> "QVec":
        c = _as_fraction(scalar)
        if c == 0:
            return QVec()
        return QVec._from_sorted(self._support, tuple([c * value for value in self._values]))

    def __mul__(self, scalar: RationalLike) -> "QVec":
        return self.scale(scalar)

    __rmul__ = __mul__

    def serialize(self) -> str:
        return ",".join(
            f"{index}:{value.numerator}/{value.denominator}" for index, value in self
        )

    @classmethod
    def parse(cls, text: str) -> "QVec":
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for chunk in text.split(","):
            index_part, _, value_part = chunk.partition(":")
            if not value_part:
                raise ValueError(f"malformed entry {chunk!r}")
            pairs.append((int(index_part), Fraction(value_part)))
        return cls(pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v}" for i, v in self)
        return f"QVec({{{body}}})"


def sumset(vectors: Iterable[QVec]) -> frozenset[QVec]:
    """All pairwise sums a + b over the given vectors, repetitions allowed.

    Because a vector may be paired with itself, the doubles 2a are always
    members of the result.
    """
    vs = list(vectors)
    out = set()
    for i, a in enumerate(vs):
        for b in vs[i:]:
            out.add(a + b)
    return frozenset(out)
