"""Tests for support-assignment coherence checking and generation.

The two laws are exercised from both sides: generated instances must pass,
and specific hand-built or mutated instances must fail with the right kind
of report.  The constant-everything assignment is the telling example: its
intersections are identical so CL3 holds, and only the h(u) = v clause of
CL4 exposes it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import support_of, with_support
from sumsetlab.deltasys import (
    CheckReport,
    OrderIso,
    SupportAssignment,
    UniverseExhausted,
    check_cl3,
    check_cl4,
    generate_canonical,
    order_iso,
    relabel,
)
from sumsetlab.qvec import QVec

index_sets = st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=6)


def equal_size_sets(count):
    """Strategy for `count` disjointly drawn index sets of one shared size."""
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda size: st.tuples(
            *[
                st.sets(st.integers(0, 100), min_size=size, max_size=size)
                for _ in range(count)
            ]
        )
    )


# ---------------------------------------------------------------------------
# order isomorphisms


def test_order_iso_matches_ranks():
    h = order_iso({9, 1, 5}, {7, 2, 3})
    assert h.source == (1, 5, 9)
    assert h.target == (2, 3, 7)
    assert [h(i) for i in (1, 5, 9)] == [2, 3, 7]
    assert h.map_set({9, 1}) == (2, 7)
    with pytest.raises(ValueError):
        h(4)


def test_order_iso_validation():
    with pytest.raises(ValueError):
        OrderIso(source=(3, 1), target=(1, 2))
    with pytest.raises(ValueError):
        OrderIso(source=(1, 2), target=(1, 2, 3))


@given(equal_size_sets(2))
def test_order_iso_inverse_round_trip(sides):
    a, b = sides
    h = order_iso(a, b)
    back = order_iso(b, a)
    for x in a:
        assert back(h(x)) == x
    assert order_iso(h.target, h.source) == back


def test_relabel_pushes_support():
    h = order_iso({9, 1, 5}, {7, 2, 3})
    v = QVec({1: 2, 5: 4})
    assert relabel(v, h) == QVec({2: 2, 3: 4})
    assert relabel(v, h).serialize() == "2:2/1,3:4/1"


def test_relabel_rejects_escaping_support():
    h = order_iso({1, 5}, {2, 3})
    with pytest.raises(ValueError):
        relabel(QVec({1: 2, 9: 2}), h)


@given(
    st.dictionaries(
        st.integers(0, 40),
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=8).filter(
            lambda q: q != 0
        ),
        min_size=1,
        max_size=5,
    ),
    st.sets(st.integers(41, 99), min_size=5, max_size=5),
)
def test_relabel_inverse_law(entries, fresh):
    v = QVec(entries)
    source = sorted(v.support)
    h = order_iso(source, sorted(fresh)[: len(source)])
    assert relabel(relabel(v, h), order_iso(h.target, h.source)) == v


# ---------------------------------------------------------------------------
# assignments and their validation


def small_instance():
    return generate_canonical((0, 2, 5, 6), 2, {1: 1, 2: 2})


def clean_under_both_laws(assignment):
    cl3 = check_cl3(assignment)
    return cl3.clean and check_cl4(assignment, cl3).clean


def test_generated_instance_layout():
    g = small_instance()
    assert g.domain()[:5] == [(), (0,), (2,), (5,), (6,)]
    assert support_of(g, ()) == ()
    assert support_of(g, (0,)) == (0, 7)
    assert support_of(g, (0, 2)) == (0, 2, 7, 8, 9, 10)
    assert support_of(g, (5, 6)) == (5, 6, 11, 16, 21, 22)


def test_support_of_outside_domain():
    g = small_instance()
    with pytest.raises(KeyError):
        support_of(g, (0, 2, 5))


def test_assignment_validation():
    with pytest.raises(ValueError):
        SupportAssignment(E=(2, 1), d=0, W={frozenset(): ()})
    with pytest.raises(ValueError):
        SupportAssignment(E=(1, 2), d=-1, W={})
    with pytest.raises(ValueError):  # missing domain sets
        SupportAssignment(E=(1, 2), d=1, W={frozenset(): ()})
    with pytest.raises(ValueError):  # extra domain set
        SupportAssignment(
            E=(1,),
            d=0,
            W={frozenset(): (), frozenset({1}): (1,)},
        )
    with pytest.raises(ValueError):  # u escapes its support
        SupportAssignment(
            E=(1,),
            d=1,
            W={frozenset(): (), frozenset({1}): (2,)},
        )


def test_serialization_round_trip():
    g = small_instance()
    assert SupportAssignment.loads(json.dumps(g.to_payload())) == g
    payload = g.to_payload()
    assert isinstance(payload["W"], list)
    assert payload["E"] == [0, 2, 5, 6]
    assert payload["d"] == 2
    assert {"u": [0], "support": [0, 7]} in payload["W"]


def test_with_support_replaces_one_entry():
    g = small_instance()
    mutated = with_support(g, (0,), (0, 7, 99))
    assert support_of(mutated, (0,)) == (0, 7, 99)
    assert support_of(mutated, (2,)) == support_of(g, (2,))
    assert support_of(g, (0,)) == (0, 7)


# ---------------------------------------------------------------------------
# the two laws on clean instances


def test_generated_instance_passes_both_laws():
    g = small_instance()
    cl3 = check_cl3(g)
    cl4 = check_cl4(g, cl3)
    assert cl3.clean and cl4.clean
    assert cl3.checks == 66  # 11 domain sets, unordered pairs with repeats
    assert cl4.checks == 230
    assert cl3.describe() == "CL3: clean (66 checks)"
    assert cl4.describe() == "CL4: clean (230 checks)"


def test_zero_padding_gives_identity_supports():
    g = generate_canonical((1, 3), 1, {})
    assert {u: support_of(g, u) for u in g.domain()} == {
        (): (),
        (1,): (1,),
        (3,): (3,),
    }
    assert clean_under_both_laws(g)


def test_degenerate_domains_are_vacuously_clean():
    just_empty = generate_canonical((4, 9), 0, {0: 2})
    assert clean_under_both_laws(just_empty)
    singleton = generate_canonical((5,), 1, {0: 1, 1: 2})
    assert clean_under_both_laws(singleton)


@settings(max_examples=40, deadline=None)
@given(
    E=st.sets(st.integers(0, 30), min_size=1, max_size=5),
    d=st.integers(0, 2),
    pad=st.fixed_dictionaries(
        {},
        optional={0: st.integers(0, 2), 1: st.integers(0, 2), 2: st.integers(0, 2)},
    ),
)
def test_generated_instances_always_coherent(E, d, pad):
    g = generate_canonical(tuple(sorted(E)), d, pad)
    assert clean_under_both_laws(g)


# ---------------------------------------------------------------------------
# violations and their reports


def test_constant_assignment_passes_cl3_but_fails_cl4():
    # Every support equals E, so all intersections coincide with all
    # expected values and CL3 cannot object.  The order isomorphisms are
    # identities, which send u to u instead of v: only h(u) = v sees it.
    E = (1, 2, 3)
    table = {u: E for u in SupportAssignment.domain_subsets(E, 1)}
    const = SupportAssignment(E=E, d=1, W=table)
    cl3 = check_cl3(const)
    assert cl3.clean
    report = check_cl4(const, cl3)
    assert not report.clean
    assert report.precondition_failures == ()
    assert len(report.violations) == 6  # ordered pairs of distinct singletons
    assert "sends (1,) to (1,), not (2,)" in report.violations[0]


def test_rank_shift_mutation_caught_only_by_cl4():
    g = generate_canonical((1, 2), 1, {0: 1, 1: 1})
    assert support_of(g, (1,)) == (1, 3, 4)
    # Swap the fresh point 4 for 0: sizes and intersections are unchanged,
    # but the rank of the element 1 inside its own support shifts.
    mutated = with_support(g, (1,), (0, 1, 3))
    cl3 = check_cl3(mutated)
    assert cl3.clean
    report = check_cl4(mutated, cl3)
    assert not report.clean and report.precondition_failures == ()
    assert len(report.violations) == 4
    assert any("sends (1,) to (3,), not (2,)" in v for v in report.violations)
    assert any("restriction of" in v for v in report.violations)


def test_type_uniformity_reported_as_precondition():
    g = generate_canonical((1, 2), 1, {0: 1, 1: 1})
    bigger = with_support(g, (1,), support_of(g, (1,)) + (99,))
    cl3 = check_cl3(bigger)
    assert cl3.clean
    report = check_cl4(bigger, cl3)
    assert report.violations == ()
    assert report.checks == 0
    assert len(report.precondition_failures) == 1
    assert "type uniformity fails at |u|=1" in report.precondition_failures[0]


def test_cl3_failure_reported_as_cl4_precondition():
    g = small_instance()
    damaged = with_support(g, (0,), (0,))  # drop the fresh point 7
    cl3 = check_cl3(damaged)
    assert not cl3.clean
    assert cl3.violations  # names the offending pair
    report = check_cl4(damaged, cl3)
    assert report.checks == 0
    assert any("CL3 fails first" in p for p in report.precondition_failures)


def test_describe_lists_failures():
    g = small_instance()
    damaged = with_support(g, (0,), (0,))
    text = check_cl3(damaged).describe()
    assert text.startswith("CL3: 3 violations, 0 precondition failures")
    assert "W((0,))" in text


def test_every_fresh_point_removal_is_caught():
    g = small_instance()
    mutations = 0
    for u in g.domain():
        support = support_of(g, u)
        for point in support:
            if point in u:
                continue
            mutated = with_support(g, u, tuple(q for q in support if q != point))
            mutations += 1
            assert not clean_under_both_laws(mutated), (u, point)
    assert mutations > 20


# ---------------------------------------------------------------------------
# rank signatures against order isomorphisms


def _key(u):
    return tuple(sorted(u))


def reference_check_cl4(assignment):
    """CL4 decided by building the order isomorphisms of every pair.

    check_cl4 compares rank tuples instead; both must give the same
    violations, precondition failures and check count.
    """
    preconditions = []
    cl3 = check_cl3(assignment)
    if not cl3.clean:
        preconditions.append(f"CL3 fails first: {len(cl3.violations)} violations")
    sizes_by_type = {}
    for u, support in assignment.W.items():
        sizes_by_type.setdefault(len(u), {}).setdefault(len(support), []).append(u)
    for size, groups in sorted(sizes_by_type.items()):
        if len(groups) > 1:
            detail = ", ".join(
                f"|W|={w} for {sorted(map(_key, us))}" for w, us in sorted(groups.items())
            )
            preconditions.append(f"type uniformity fails at |u|={size}: {detail}")
    if preconditions:
        return CheckReport(
            law="CL4", violations=(), precondition_failures=tuple(preconditions), checks=0
        )
    W = assignment.W
    violations = []
    checks = 0
    by_size = {}
    for u in W:
        by_size.setdefault(len(u), []).append(u)
    for size, sets in sorted(by_size.items()):
        ordered = sorted(sets, key=_key)
        for u in ordered:
            for v in ordered:
                checks += 1
                image = order_iso(W[u], W[v]).map_set(u)
                if image != _key(v):
                    violations.append(
                        f"h(W({_key(u)}), W({_key(v)})) sends {_key(u)} to {image}, not {_key(v)}"
                    )
    for size, sets in sorted(by_size.items()):
        ordered = sorted(sets, key=_key)
        for u2 in ordered:
            for u2p in ordered:
                for k in range(size + 1):
                    for positions in combinations(range(size), k):
                        u1 = frozenset(_key(u2)[p] for p in positions)
                        u1p = frozenset(_key(u2p)[p] for p in positions)
                        checks += 1
                        outer = order_iso(W[u2], W[u2p])
                        inner = order_iso(W[u1], W[u1p])
                        restricted = {i: outer(i) for i in W[u1]}
                        law = {i: inner(i) for i in W[u1]}
                        if restricted != law:
                            where = sorted(i for i in restricted if restricted[i] != law[i])
                            violations.append(
                                f"restriction of h(W({_key(u2)}), W({_key(u2p)})) "
                                f"to W({_key(u1)}) disagrees with "
                                f"h(W({_key(u1)}), W({_key(u1p)})) at {where}"
                            )
    return CheckReport(law="CL4", violations=tuple(violations), checks=checks)


def swapped(assignment, a, b):
    """The assignment with the points a and b exchanged everywhere.

    a and b are both in E or both outside it, so the domain is kept; the
    swap is a bijection, so CL3 and type uniformity survive it.
    """
    swap = {a: b, b: a}
    table = {
        frozenset(swap.get(x, x) for x in u): tuple(sorted(swap.get(x, x) for x in support))
        for u, support in assignment.W.items()
    }
    return SupportAssignment(E=assignment.E, d=assignment.d, W=table)


def random_instance(rng):
    E = tuple(sorted(rng.sample(range(12), rng.randint(1, 4))))
    d = rng.randint(0, 3)
    pad = {size: rng.randint(0, 2) for size in range(d + 1)}
    return generate_canonical(E, d, pad)


def assert_same_cl4(assignment):
    ours, ref = check_cl4(assignment, check_cl3(assignment)), reference_check_cl4(assignment)
    assert ours.violations == ref.violations
    assert ours.precondition_failures == ref.precondition_failures
    assert ours.checks == ref.checks
    return ours


def test_rank_signatures_match_order_isos_on_swapped_instances():
    rng = random.Random(20261018)
    dirty = 0
    for _ in range(150):
        g = random_instance(rng)
        points = sorted({p for support in g.W.values() for p in support})
        fresh = [p for p in points if p not in g.E]
        pools = [pool for pool in (list(g.E), fresh) if len(pool) >= 2]
        if not pools:
            continue
        a, b = rng.sample(rng.choice(pools), 2)
        mutated = swapped(g, a, b)
        assert check_cl3(mutated).clean
        report = assert_same_cl4(mutated)
        assert report.precondition_failures == ()
        dirty += bool(report.violations)
    assert dirty >= 15


def test_rank_signatures_match_order_isos_on_support_mutations():
    rng = random.Random(7)
    tripped = 0
    for _ in range(150):
        g = random_instance(rng)
        u = rng.choice(list(g.W))
        support = g.W[u]
        extra = [p for p in range(max(support, default=0) + len(support) + 3) if p not in support]
        choice = rng.randrange(3)
        if choice == 0 and len(support) > len(u):
            victim = rng.choice([p for p in support if p not in u])
            mutated = with_support(g, u, tuple(p for p in support if p != victim))
        elif choice == 1:
            mutated = with_support(g, u, support + (rng.choice(extra),))
        else:
            keep = [p for p in support if p in u]
            trade = rng.sample(extra, len(support) - len(keep))
            mutated = with_support(g, u, tuple(keep + trade))
        tripped += bool(assert_same_cl4(mutated).precondition_failures)
    assert tripped >= 50


def test_rank_signatures_match_order_isos_on_the_hand_built_cases():
    E = (1, 2, 3)
    const = SupportAssignment(E=E, d=1, W={u: E for u in SupportAssignment.domain_subsets(E, 1)})
    g = generate_canonical((1, 2), 1, {0: 1, 1: 1})
    for assignment in (
        const,
        with_support(g, (1,), (0, 1, 3)),
        small_instance(),
        with_support(small_instance(), (0,), (0,)),
    ):
        assert_same_cl4(assignment)


# ---------------------------------------------------------------------------
# generation details


def test_generation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_canonical((1, 1, 2), 1, {})
    with pytest.raises(ValueError):
        generate_canonical((1, 2), 1, {0: -1})


def test_universe_bound_enforced():
    with pytest.raises(UniverseExhausted):
        generate_canonical((0, 2, 5, 6), 2, {1: 1, 2: 2}, universe=15)
    g = generate_canonical((0, 2, 5, 6), 2, {1: 1, 2: 2}, universe=50)
    points = {p for u in g.domain() for p in support_of(g, u)}
    assert max(points) == 22 < 50


def test_fresh_points_start_above_e():
    g = generate_canonical((10, 20), 1, {0: 2, 1: 1})
    fresh = {
        p for u in g.domain() for p in support_of(g, u) if p not in {10, 20}
    }
    assert min(fresh) == 21
    assert fresh == set(range(21, 25))


def test_pad_accepts_sequence_form():
    by_dict = generate_canonical((1, 2), 1, {0: 1, 1: 2})
    by_list = generate_canonical((1, 2), 1, [1, 2])
    assert by_dict == by_list
