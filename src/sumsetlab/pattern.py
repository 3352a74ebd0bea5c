"""Pattern strings, the star substitution, and canonical index tuples.

The combinatorial core works with strings over {2, 4}: for 0 <= l <= r the
string s_l has length r + l and consists of 2l twos followed by r - l fours.
Placing a string on an increasing set of coordinate indices (the star
operation) produces a QVec, and these vectors are exactly the shapes taken
by doubles and pairwise sums of the witness vectors built downstream.
Every level tuple colored through oracle.derived becomes a vector through
star, so star is kept cheap: make_string returns one cached PatternString per
(r, l), and (r, l) and the values are checked once, when it is built;
star checks only the indices of a pattern before building through QVec's
trusted constructor, which keeps its index tuple and the pattern's shared
value tuple as they are.  Level tuples arrive with strictly increasing
indices, so star first tries a single pass that accepts exactly such
input; anything else goes through the full distinctness, length and
naturality checks.

Index families model r disjoint blocks of coordinates, each with finitely
many members plus one distinguished top.  Positions inside a family are
either naturals (members, in increasing order) or the symbol TOP.  TOP
compares strictly greater than every natural, which is what the
canonicality conditions below rely on.

A canonical tuple of level l draws an ordered pair from each of the first l
families and a single element from each remaining family.  Writing i_k for
the unprimed position in family k and i_k' for the primed one (k < l), the
tuple is l-canonical when i_k < i_k' <= TOP and every i_k' exceeds the
maximum finite unprimed position of the whole tuple.
Both witness pipelines end in pigeonhole_pair and halved_family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

from .qvec import QVec, RationalLike


class _TopType:
    """Distinguished position symbol, strictly above every natural."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"

    def __lt__(self, other):
        if isinstance(other, (int, _TopType)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _TopType):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _TopType):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, _TopType)):
            return True
        return NotImplemented


TOP = _TopType()

Position = Union[int, _TopType]


def is_top(position: Position) -> bool:
    return isinstance(position, _TopType)


@dataclass(frozen=True)
class PatternString:
    """String of nonzero values used by the star operation; s_l = 2^(2l) 4^(r-l).

    The values are checked nonzero once, at construction, and kept as
    Fractions in ``rationals``, so star places them without re-checking.
    """

    r: int
    l: int
    values: tuple[int, ...]
    rationals: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rationals = tuple(Fraction(v) for v in self.values)
        if 0 in rationals:
            raise ValueError("pattern values must be nonzero")
        object.__setattr__(self, "rationals", rationals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k: int) -> int:
        return self.values[k]


# typed: a float such as 1.0 hashes like 1 and would otherwise hit the
# cached string for 1 instead of being rejected.
@lru_cache(maxsize=None, typed=True)
def make_string(r: int, l: int) -> PatternString:
    """Build s_l for the given r: 2l twos followed by r - l fours.

    Cached per (r, l), so r and l are checked on the first call only; an
    invalid pair is never cached and raises ValueError on every call.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    if not isinstance(l, int) or l < 0 or l > r:
        raise ValueError(f"l must lie in [0, {r}], got {l!r}")
    return PatternString(r=r, l=l, values=(2,) * (2 * l) + (4,) * (r - l))


def is_increasing_naturals(idx: tuple, length: int) -> bool:
    """True iff idx has the given length and is strictly increasing ints >= 0.

    This is star's fast-path test for a PatternString, so bools, which are
    ints by subclass but not by type, fail it.
    """
    if len(idx) != length:
        return False
    previous = -1
    for index in idx:
        if type(index) is not int or index <= previous:
            return False
        previous = index
    return True


def star(values: Union[PatternString, Sequence[RationalLike]], indices: Iterable[int]) -> QVec:
    """Place values on an index set: the k-th smallest index carries values[k].

    The index set must consist of pairwise distinct naturals and match the
    string in length; all values must be nonzero.  A PatternString's values
    are nonzero by construction, so only the indices are checked for it,
    and indices given as strictly increasing ints are accepted in a single
    pass and placed without sorting.  Any other input meets the full
    checks, in the order that fixes which error is reported.
    """
    trusted = isinstance(values, PatternString)
    vals = values.rationals if trusted else tuple(values)
    idx = tuple(indices)
    if trusted and is_increasing_naturals(idx, len(vals)):
        return QVec._from_sorted(idx, vals)
    if len(idx) != len(set(idx)):
        raise ValueError(f"indices must be pairwise distinct, got {idx!r}")
    if len(vals) != len(idx):
        raise ValueError(f"length mismatch: {len(vals)} values vs {len(idx)} indices")
    if not trusted:
        vals = tuple(Fraction(v) for v in vals)
        if 0 in vals:
            raise ValueError("star values must be nonzero")
    for index in idx:
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise ValueError(f"index must be a natural number, got {index!r}")
    return QVec._from_sorted(tuple(sorted(idx)), vals)


@dataclass(frozen=True)
class IndexFamily:
    """Finitely many member indices in increasing order plus one top above them."""

    members: tuple[int, ...]
    top: int

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError(f"members must be strictly increasing, got {self.members!r}")
        if self.members and self.top <= self.members[-1]:
            raise ValueError(f"top {self.top} must exceed every member")

    @property
    def size(self) -> int:
        return len(self.members)

    def index_at(self, position: Position) -> int:
        if is_top(position):
            return self.top
        return self.members[position]

    def position_of(self, index: int) -> Position:
        if index == self.top:
            return TOP
        try:
            return self.members.index(index)
        except ValueError:
            raise ValueError(f"index {index} not in family") from None

    def __contains__(self, index: int) -> bool:
        return index == self.top or index in self.members

    def low(self) -> int:
        return self.members[0] if self.members else self.top

    def high(self) -> int:
        return self.top


def pigeonhole_pair(rho: Sequence[int]) -> tuple[int, int]:
    """First (l', l) in lexicographic order with rho[l'] == rho[l]."""
    for l_prime in range(len(rho)):
        for l in range(l_prime + 1, len(rho)):
            if rho[l_prime] == rho[l]:
                return l_prime, l
    raise ValueError(f"no repeated value in {tuple(rho)}; not an r-coloring of r+1 levels?")


def halved_family(
    r: int,
    l_prime: int,
    l: int,
    frames: Sequence[Sequence[int]],
    cross: Callable[[int, int], Sequence[int]],
) -> list[QVec]:
    """Witness family x_i = (1/2) s_l' * frames[i] for a coincidence at l' < l.

    Asserts 2 x_i = s_l' * frames[i] and x_i + x_j = s_l * cross(i, j) for
    every i < j, so each sum lands on a pattern of one of the two levels.
    """
    s_low, s_high = make_string(r, l_prime), make_string(r, l)
    xs = [star(s_low, frame).scale("1/2") for frame in frames]
    for i, x in enumerate(xs):
        assert x + x == star(s_low, frames[i])
        for j in range(i + 1, len(xs)):
            assert x + xs[j] == star(s_high, cross(i, j))
    return xs


def families_are_laid_out(families: Sequence[IndexFamily]) -> bool:
    """True iff the families occupy pairwise disjoint, increasing index ranges."""
    for previous, current in zip(families, families[1:]):
        if previous.high() >= current.low():
            return False
    return True


@dataclass(frozen=True)
class CanonicalTuple:
    """Level-l tuple: a pair from each of the first l families, singles after.

    ``index`` holds the unprimed positions (one per family), ``primed`` the
    primed positions of the paired blocks, and ``entries`` the resolved
    coordinate indices in family order: the unprimed and primed index of
    each of the first l families, then one index per later family.
    ``entries`` is the only stored copy of the coordinates; ``blocks``
    regroups it per family.
    """

    l: int
    index: tuple[Position, ...]
    primed: tuple[Position, ...]
    entries: tuple[int, ...]

    @classmethod
    def _from_parts(cls, l, index, primed, entries) -> "CanonicalTuple":
        """The same tuple as cls(l, index, primed, entries), built without
        the frozen dataclass __init__, which sets each field through
        object.__setattr__.  Like that __init__ it checks nothing; the
        enumerator's hot loop builds every tuple through it."""
        t = object.__new__(cls)
        fields = t.__dict__
        fields["l"] = l
        fields["index"] = index
        fields["primed"] = primed
        fields["entries"] = entries
        return t

    @property
    def r(self) -> int:
        return len(self.index)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        paired, e = 2 * self.l, self.entries
        return (*zip(e[0:paired:2], e[1:paired:2]), *((x,) for x in e[paired:]))

    def render(self) -> str:
        parts = []
        for k in range(self.r):
            if k < self.l:
                parts.append(f"{self.index[k]!r},{self.primed[k]!r}")
            else:
                parts.append(f"{self.index[k]!r}")
        return "(" + " | ".join(parts) + ")"


def canonical_tuple(
    families: Sequence[IndexFamily],
    l: int,
    index: Sequence[Position],
    primed: Sequence[Position] = (),
) -> CanonicalTuple:
    """Resolve positions against the families and build the tuple.

    Validates shape only (positions exist, paired blocks are ordered);
    canonicality proper is the job of is_l_canonical.
    """
    r = len(families)
    index = tuple(index)
    primed = tuple(primed)
    if not 0 <= l <= r:
        raise ValueError(f"level {l} out of range for {r} families")
    if len(index) != r:
        raise ValueError(f"index vector must have length {r}, got {len(index)}")
    if len(primed) != l:
        raise ValueError(f"primed vector must have length {l}, got {len(primed)}")
    entries = []
    for k, family in enumerate(families):
        if k < l:
            a, b = index[k], primed[k]
            if not a < b:
                raise ValueError(f"block {k}: positions must satisfy {a!r} < {b!r}")
            entries += (family.index_at(a), family.index_at(b))
        else:
            entries.append(family.index_at(index[k]))
    return CanonicalTuple(l=l, index=index, primed=primed, entries=tuple(entries))


def is_index_strictly_increasing(t: Union[CanonicalTuple, Sequence[Position]]) -> bool:
    """Nondecreasing index vector, strictly increasing at finite entries.

    TOP may repeat at the tail, but a finite entry must be strictly below
    everything after it.
    """
    index = t.index if isinstance(t, CanonicalTuple) else tuple(t)
    for k in range(len(index)):
        for k2 in range(k + 1, len(index)):
            if not index[k] <= index[k2]:
                return False
            if not is_top(index[k]) and not index[k] < index[k2]:
                return False
    return True


def is_l_canonical(
    t: CanonicalTuple, families: Sequence[IndexFamily], l: int
) -> tuple[bool, str]:
    """Check l-canonicality against the families; returns (ok, reason)."""
    r = len(families)
    if not families_are_laid_out(families):
        return False, "families do not occupy disjoint increasing ranges"
    if t.l != l:
        return False, f"tuple has level {t.l}, expected {l}"
    if len(t.entries) != r + l:
        return False, f"tuple has {len(t.entries)} entries, expected {r + l}"
    for k, block in enumerate(t.blocks):
        for entry in block:
            if entry not in families[k]:
                return False, f"entry {entry} not in family {k}"
    # Re-derive positions from the entries so mutated tuples cannot lie.
    index = []
    primed = []
    for k, block in enumerate(t.blocks):
        if k < l:
            a, b = (families[k].position_of(e) for e in block)
            index.append(a)
            primed.append(b)
        else:
            index.append(families[k].position_of(block[0]))
    for k in range(l):
        if not index[k] < primed[k]:
            return False, f"block {k}: need i_{k} < i_{k}', got {index[k]!r}, {primed[k]!r}"
    finite = [p for p in index if not is_top(p)]
    if finite:
        bound = max(finite)
        for k in range(l):
            if not primed[k] > bound:
                return (
                    False,
                    f"primed position {primed[k]!r} in block {k} does not exceed "
                    f"max finite unprimed position {bound}",
                )
    return True, "ok"
