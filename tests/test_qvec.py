"""Exact rational vectors: arithmetic, sumsets, canonical serialization."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumsetlab.oracle import ColoringOracle, OrderInvariantOracle
from sumsetlab.pattern import make_string, star
from sumsetlab.qvec import QVec, sumset

indices = st.integers(min_value=0, max_value=63)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(
    lambda q: q != 0
)
qvecs = st.dictionaries(indices, rationals, max_size=8).map(QVec)


def test_add_cancels_opposite_coordinates():
    u = QVec({0: 2, 5: 3})
    v = QVec({5: -3, 7: 1})
    assert u + v == QVec({0: 2, 7: 1})


def test_add_zero_vector_is_identity():
    v = QVec({3: Fraction(1, 2), 11: -2})
    assert v + QVec() == v
    assert QVec() + v == v


def test_add_merges_overlapping_supports():
    assert QVec({0: 2, 3: 2}) + QVec({3: 2, 9: 4}) == QVec({0: 2, 3: 4, 9: 4})


def test_scale_half_then_double_is_identity():
    v = QVec({0: 4, 1: 4})
    assert v.scale("1/2") == QVec({0: 2, 1: 2})
    assert v.scale("1/2").scale(2) == v


def test_scale_by_one_is_identity():
    v = QVec({2: Fraction(7, 3)})
    assert v.scale(1) == v


def test_scale_by_zero_gives_empty_support():
    assert QVec({3: 7}).scale(0).support == ()
    assert QVec({3: 7}).scale(0) == QVec()


def test_sumset_of_singleton_is_the_double():
    v = QVec({2: Fraction(3, 4)})
    assert sumset([v]) == {v.scale(2)}


def test_sumset_of_pair_has_three_elements():
    x, y = QVec({0: 1}), QVec({1: 1})
    assert sumset([x, y]) == {QVec({0: 2}), QVec({0: 1, 1: 1}), QVec({1: 2})}


@given(st.lists(qvecs, min_size=1, max_size=6))
def test_sumset_size_is_at_most_pairs_with_repetition(xs):
    distinct = set(xs)
    n = len(distinct)
    assert len(sumset(distinct)) <= n * (n + 1) // 2


@given(st.sets(qvecs, min_size=1, max_size=5))
def test_doubles_always_belong_to_the_sumset(xs):
    ss = sumset(xs)
    for x in xs:
        assert x.scale(2) in ss


@given(qvecs, qvecs)
def test_add_commutes(u, v):
    assert u + v == v + u


@given(qvecs, qvecs, qvecs)
def test_add_associates(u, v, w):
    assert (u + v) + w == u + (v + w)


@given(qvecs, qvecs)
def test_support_of_sum_within_union(u, v):
    assert set((u + v).support) <= set(u.support) | set(v.support)


@given(qvecs)
def test_support_and_values_in_order_split_items(v):
    items = v.items()
    assert v.support == tuple(index for index, _ in items)
    assert v.values_in_order() == tuple(value for _, value in items)
    assert type(v.support) is tuple and type(v.values_in_order()) is tuple


class _Squashed(ColoringOracle):
    """Keeps the squashed vector that OrderInvariantOracle hands it."""

    def __init__(self):
        super().__init__(1, "squashed")
        self.seen = []

    def _color_impl(self, v):
        self.seen.append(v)
        return 0


def squash(v: QVec) -> QVec:
    inner = _Squashed()
    OrderInvariantOracle(inner).color(v)
    return inner.seen[0]


@st.composite
def star_built(draw):
    if draw(st.booleans()):
        r = draw(st.integers(1, 4))
        values = make_string(r, draw(st.integers(0, r)))
    else:
        values = draw(st.lists(rationals, min_size=1, max_size=6))
    idx = draw(st.lists(indices, min_size=len(values), max_size=len(values), unique=True))
    return star(values, draw(st.sampled_from([sorted(idx), idx])))


# Vectors from every constructor: the public one and star, then parse, +,
# scale and the order-invariant squash over their vectors.
base_vectors = st.one_of(qvecs, star_built())
built_vectors = st.one_of(
    base_vectors,
    base_vectors.map(lambda v: QVec.parse(v.serialize())),
    st.tuples(base_vectors, base_vectors).map(lambda uv: uv[0] + uv[1]),
    st.tuples(base_vectors, rationals).map(lambda vc: vc[0].scale(vc[1])),
    base_vectors.map(squash),
)


@given(built_vectors, built_vectors)
def test_every_construction_keeps_the_invariant(u, v):
    for w in (u, v):
        support, values = w.support, w.values_in_order()
        assert type(support) is tuple and type(values) is tuple
        assert len(support) == len(values) == len(w)
        assert all(type(i) is int and i >= 0 for i in support)
        assert all(a < b for a, b in zip(support, support[1:]))
        assert all(type(value) is Fraction and value != 0 for value in values)
        assert w.items() == tuple(zip(support, values)) == tuple(w)
        assert w.support is w.support and w.values_in_order() is w.values_in_order()
        for same in (QVec(w.items()), QVec.parse(w.serialize())):
            assert same == w and hash(same) == hash(w)
    assert (u == v) == (u.items() == v.items())
    if u == v:
        assert hash(u) == hash(v)


def test_support_and_values_in_order_of_a_star_built_vector():
    v = star(make_string(3, 1), (2, 5, 7, 11))
    assert v.support == (2, 5, 7, 11)
    assert v.values_in_order() == (2, 2, 4, 4)
    assert QVec().support == () == QVec().values_in_order()


def test_support_union_is_exact_without_cancellation():
    u = QVec({0: 1, 2: 1})
    v = QVec({1: 1, 2: 1})
    assert (u + v).support == (0, 1, 2)


@given(rationals, qvecs, qvecs)
def test_scale_distributes_over_add(c, u, v):
    assert (u + v).scale(c) == u.scale(c) + v.scale(c)


def reference_add(u, v):
    """u + v built through the validating constructor, one dict entry per
    index; + must give the same vector."""
    merged = dict(u.items())
    for index, value in v.items():
        new = merged.get(index, Fraction(0)) + value
        if new == 0:
            merged.pop(index, None)
        else:
            merged[index] = new
    return QVec(merged)


def reference_scale(v, scalar):
    c = Fraction(scalar)
    if c == 0:
        return QVec()
    return QVec({index: c * value for index, value in v.items()})


def assert_same_vector(ours, ref):
    assert ours.items() == ref.items()
    assert ours == ref and hash(ours) == hash(ref)
    positions = [index for index, _ in ours.items()]
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert all(type(value) is Fraction and value != 0 for _, value in ours.items())


small_qvecs = st.dictionaries(st.integers(0, 7), rationals, max_size=6).map(QVec)
scalars = st.one_of(
    rationals,
    st.integers(-6, 6),
    rationals.map(str),
    st.sampled_from([0, Fraction(0), "0", "-0/5"]),
)


@given(small_qvecs, small_qvecs, st.sets(st.integers(0, 7)))
def test_add_matches_the_dict_built_sum(u, v, cancelled):
    # v with some of u's coordinates replaced by their negatives, so that
    # some sums cancel there, and some cancel everywhere.
    w = QVec(
        {**dict(v.items()), **{i: -value for i, value in u.items() if i in cancelled}}
    )
    for a, b in ((u, v), (u, w), (w, u), (u, u.scale(-1)), (u, QVec()), (QVec(), v)):
        assert_same_vector(a + b, reference_add(a, b))
    assert u + u.scale(-1) == QVec() and (u + u.scale(-1)).items() == ()


@given(small_qvecs, scalars)
def test_scale_matches_the_dict_built_product(v, scalar):
    assert_same_vector(v.scale(scalar), reference_scale(v, scalar))
    assert_same_vector(scalar * v, reference_scale(v, scalar))


def test_zero_values_are_dropped_at_construction():
    assert QVec({4: 0, 7: 1}).support == (7,)
    assert len(QVec({4: Fraction(0, 5)})) == 0


def test_values_stored_in_lowest_terms():
    v = QVec({0: Fraction(4, 8)})
    assert v.value(0) == Fraction(1, 2)
    assert v.serialize() == "0:1/2"


def test_negative_or_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        QVec({-1: 2})
    with pytest.raises(ValueError):
        QVec([(3, 1), (3, 2)])


@given(qvecs, st.integers(-1, 65))
def test_value_reads_the_entry_or_zero(v, index):
    assert v.value(index) == dict(v.items()).get(index, Fraction(0))


def test_value_outside_support_is_zero():
    assert QVec({5: 1}).value(2) == 0


def test_serialize_sorts_by_index():
    v = QVec({9: 4, 0: 2, 3: Fraction(-1, 2)})
    assert v.serialize() == "0:2/1,3:-1/2,9:4/1"


def test_zero_vector_serializes_to_empty_string():
    assert QVec().serialize() == ""
    assert QVec.parse("") == QVec()


@given(qvecs)
def test_parse_round_trips_serialize(v):
    assert QVec.parse(v.serialize()) == v


def test_parse_rejects_malformed_entries():
    with pytest.raises(ValueError):
        QVec.parse("0:1/2,garbage")
    with pytest.raises(ValueError):
        QVec.parse("0")


@given(qvecs, qvecs)
def test_equal_vectors_hash_equal(u, v):
    if u == v:
        assert hash(u) == hash(v)


def test_parsed_and_star_built_vectors_hash_equal():
    for built in (star(make_string(3, 1), (9, 1, 4, 6)), star((2, "1/3", -4), (0, 7, 2))):
        for v in (built, built.scale("1/2")):
            parsed = QVec.parse(v.serialize())
            assert parsed == v and hash(parsed) == hash(v)
            assert {parsed: "x"}[v] == "x"
            assert [v.value(i) for i in range(10)] == [parsed.value(i) for i in range(10)]
            assert v + parsed == parsed.scale(2)


def test_equality_is_entrywise():
    assert QVec({0: 1, 1: 2}) == QVec([(1, 2), (0, 1)])
    assert QVec({0: 1}) != QVec({0: 2})
    assert QVec({0: 1}).__eq__(object()) is NotImplemented


def test_scalar_multiplication_operators_agree():
    v = QVec({1: 3})
    assert 2 * v == v * 2 == v.scale(2)


def test_arbitrary_precision_sums_never_overflow():
    big = 10**40
    v = QVec({0: Fraction(big, 3)})
    total = QVec()
    for _ in range(9):
        total = total + v
    assert total.value(0) == Fraction(9 * big, 3) == 3 * big
