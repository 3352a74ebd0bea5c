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

Every QVec keeps one invariant: its entries are (index, value) pairs with
strictly increasing natural indices and nonzero Fraction values.  The
public constructor and parse establish it by checking every entry.
_from_sorted is the one trusted constructor: it takes pairs that already
satisfy the invariant and checks nothing, so only callers that guarantee
it by construction use it.  Those are star, the order-invariant squash,
+ (which drops every coordinate that cancels and sorts the merged
indices) and scale (a nonzero scalar times a nonzero value is nonzero).
The hash is computed on first use, not at construction, since most
vectors built on the hot path are colored once and never hashed.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

_index_of = itemgetter(0)
_value_of = itemgetter(1)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class QVec:
    """Immutable finitely supported vector of rationals, indexed by naturals."""

    __slots__ = ("_items", "_hash")

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
        self._items: tuple[tuple[int, Fraction], ...] = tuple(sorted(cleaned.items()))
        self._hash: int | None = None

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[int, Fraction], ...]) -> "QVec":
        """Trusted constructor: items must already be (natural index,
        nonzero Fraction) pairs in strictly increasing index order."""
        v = object.__new__(cls)
        v._items = items
        v._hash = None
        return v

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(map(_index_of, self._items))

    def value(self, index: int) -> Fraction:
        return next((value for i, value in self._items if i == index), Fraction(0))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def values_in_order(self) -> tuple[Fraction, ...]:
        return tuple(map(_value_of, self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVec):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __add__(self, other: "QVec") -> "QVec":
        if not isinstance(other, QVec):
            return NotImplemented
        merged = dict(self._items)
        for index, value in other._items:
            if index in merged:
                new = merged[index] + value
                if new:
                    merged[index] = new
                else:
                    del merged[index]
            else:
                merged[index] = value
        return QVec._from_sorted(tuple(sorted(merged.items())))

    def scale(self, scalar: RationalLike) -> "QVec":
        c = _as_fraction(scalar)
        if c == 0:
            return QVec()
        return QVec._from_sorted(tuple([(index, c * value) for index, value in self._items]))

    def __mul__(self, scalar: RationalLike) -> "QVec":
        return self.scale(scalar)

    __rmul__ = __mul__

    def serialize(self) -> str:
        return ",".join(
            f"{index}:{value.numerator}/{value.denominator}" for index, value in self._items
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
        body = ", ".join(f"{i}: {v}" for i, v in self._items)
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
