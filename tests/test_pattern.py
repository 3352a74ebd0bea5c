"""String family, star operation, and canonical tuples."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab.pattern import (
    TOP,
    CanonicalTuple,
    IndexFamily,
    PatternString,
    canonical_tuple,
    families_are_laid_out,
    is_index_strictly_increasing,
    is_l_canonical,
    is_top,
    make_string,
    star,
)
from sumsetlab.qvec import QVec


def test_make_string_small_cases():
    assert make_string(2, 1).values == (2, 2, 4)
    assert make_string(2, 0).values == (4, 4)
    assert make_string(3, 3).values == (2,) * 6


def test_make_string_shape_exhaustively():
    for r in range(1, 7):
        for l in range(r + 1):
            s = make_string(r, l)
            assert len(s) == r + l
            assert s.values.count(2) == 2 * l
            assert s.values.count(4) == r - l
            assert s.values == tuple(sorted(s.values))


def test_make_string_rejects_bad_levels():
    with pytest.raises(ValueError):
        make_string(2, -1)
    with pytest.raises(ValueError):
        make_string(2, 3)
    with pytest.raises(ValueError):
        make_string(0, 0)


def test_star_places_values_on_sorted_indices():
    assert star((2, 2, 4), (0, 3, 7)) == QVec({0: 2, 3: 2, 7: 4})
    # Index order on input does not matter; rank order does.
    assert star((2, 2, 4), (7, 0, 3)) == QVec({0: 2, 3: 2, 7: 4})


def test_star_empty_is_zero_vector():
    assert star((), ()) == QVec()


def test_star_halved_then_doubled_returns_the_pattern():
    v = star(make_string(2, 0), (5, 9))
    assert v.scale("1/2").scale(2) == v


def test_star_support_is_exactly_the_index_set():
    s = make_string(3, 2)
    v = star(s, (1, 4, 6, 10, 12))
    assert v.support == (1, 4, 6, 10, 12)
    assert len(v) == len(s)


def test_star_rejects_length_mismatch_and_repeats():
    with pytest.raises(ValueError):
        star((2, 4), (1, 2, 3))
    with pytest.raises(ValueError):
        star((2, 4), (3, 3))
    for values in ((2, 0), (Fraction(0), 4), ("0/3", 2)):
        with pytest.raises(ValueError):
            star(values, (1, 2))
    with pytest.raises(ValueError):
        PatternString(r=2, l=0, values=(4, 0))


def test_star_of_a_pattern_string_equals_the_validating_constructor():
    for r in range(1, 5):
        for l in range(r + 1):
            s = make_string(r, l)
            for idx in (tuple(range(r + l))[::-1], tuple(range(3, 5 * (r + l) + 3, 5))):
                fast = star(s, idx)
                slow = QVec(zip(sorted(idx), s.values))
                assert fast.items() == slow.items()
                assert all(type(value) is Fraction for _, value in fast.items())
                assert fast.serialize() == slow.serialize()
                assert fast == slow and hash(fast) == hash(slow)
                assert fast in {slow} and slow in {fast}
                assert {slow: (r, l)}[fast] == (r, l)


# Each bad index set with the exact message star reports for it.
STAR_INDEX_ERRORS = [
    ((-1, 2, 3), "index must be a natural number, got -1"),
    ((True, 2, 3), "index must be a natural number, got True"),
    ((1, False, 3), "index must be a natural number, got False"),
    ((1.0, 2, 3), "index must be a natural number, got 1.0"),
    (("1", 2, 3), "index must be a natural number, got '1'"),
    ((2, 2, 3), "indices must be pairwise distinct, got (2, 2, 3)"),
    ((1, 2), "length mismatch: 3 values vs 2 indices"),
    ((1, 2, 3, 4), "length mismatch: 3 values vs 4 indices"),
    # Sorted, yet not naturals, not distinct or not of the string's length.
    ((False, 1, 2), "index must be a natural number, got False"),
    ((-1, 0, 1), "index must be a natural number, got -1"),
    ((0, 0.5, 1), "index must be a natural number, got 0.5"),
    ((0, 1, 1), "indices must be pairwise distinct, got (0, 1, 1)"),
    ((0, 1, 1, 2), "indices must be pairwise distinct, got (0, 1, 1, 2)"),
    ((0, 1), "length mismatch: 3 values vs 2 indices"),
    ((0, 1, 2, 3), "length mismatch: 3 values vs 4 indices"),
]


@pytest.mark.parametrize(
    "indices, message",
    [pytest.param(*case, id=f"indices{i}") for i, case in enumerate(STAR_INDEX_ERRORS)],
)
def test_star_of_a_pattern_string_still_checks_its_indices(indices, message):
    with pytest.raises(ValueError) as raised:
        star(make_string(2, 1), indices)
    assert str(raised.value) == message


def test_top_compares_above_every_natural():
    assert TOP > 10**9
    assert not TOP < 0
    assert TOP <= TOP and TOP >= TOP
    assert not TOP < TOP and not TOP > TOP
    assert is_top(TOP) and not is_top(3)


def test_index_strict_increase_examples():
    assert is_index_strictly_increasing((0, 1, 2))
    assert not is_index_strictly_increasing((0, 0, 1))
    assert is_index_strictly_increasing((3, TOP, TOP))
    assert not is_index_strictly_increasing((TOP, 3))


families3 = (
    IndexFamily(members=(0, 1, 2, 3), top=5),
    IndexFamily(members=(6, 7, 8, 9), top=11),
    IndexFamily(members=(12, 13, 14, 15), top=17),
)


def test_families_layout_validation():
    assert families_are_laid_out(families3)
    shuffled = (families3[1], families3[0])
    assert not families_are_laid_out(shuffled)


def test_canonical_tuple_with_primed_top_is_canonical():
    fams = families3[:2]
    t = canonical_tuple(fams, 1, index=(0, 3), primed=(TOP,))
    ok, reason = is_l_canonical(t, fams, 1)
    assert ok, reason
    assert t.entries == (0, 5, 9)


def test_reversed_pair_is_rejected_at_construction():
    fams = families3[:2]
    with pytest.raises(ValueError):
        canonical_tuple(fams, 1, index=(2, 0), primed=(1,))


def test_dominance_of_primed_positions_checked_against_all_blocks():
    fams = (
        IndexFamily(members=tuple(range(6)), top=6),
        IndexFamily(members=tuple(range(7, 13)), top=13),
    )
    # Primed positions 5 and 4 both exceed the max finite unprimed position 1.
    t = canonical_tuple(fams, 2, index=(0, 1), primed=(5, 4))
    ok, reason = is_l_canonical(t, fams, 2)
    assert ok, reason
    # A primed position below another block's unprimed one breaks canonicality.
    bad = canonical_tuple(fams, 2, index=(0, 4), primed=(3, TOP))
    ok, reason = is_l_canonical(bad, fams, 2)
    assert not ok
    assert "does not exceed" in reason


def test_canonicality_rejects_wrong_block_shape():
    fams = families3[:2]
    t = canonical_tuple(fams, 1, index=(0, 2), primed=(3,))
    ok, _ = is_l_canonical(t, fams, 1)
    assert ok
    assert is_l_canonical(t, fams, 0) == (False, "tuple has level 1, expected 0")


def test_entries_flatten_blocks_in_family_order():
    t = canonical_tuple(families3, 2, index=(0, 0, TOP), primed=(TOP, TOP))
    assert t.entries == (0, 5, 6, 11, 17)
    assert "TOP" in t.render()


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6, unique=True))
def test_star_is_invariant_under_index_permutation(idx):
    values = tuple(2 for _ in idx)
    assert star(values, idx) == star(values, sorted(idx))
