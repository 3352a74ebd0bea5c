"""Tests for the frozen value records (sumsetlab.record.Record).

The literal reprs, the equality and hashing rules, the constructor's
refusals and pickling are pinned as the records behaved when they were
frozen dataclasses, so that swapping the base changes no output byte and
no code path.
"""

from __future__ import annotations

import pickle

import pytest

from conftest import PrimedTopOracle
from sumsetlab.deltasys import OrderIso
from sumsetlab.oracle import PipelineFailure, make_oracle
from sumsetlab.pattern import IndexFamily, PatternString, make_string
from sumsetlab.pipeline_r import check_levels, layout_families, shrink, system_from_universe
from sumsetlab.search import (
    ESCAPABLE,
    FORCED,
    BadSearch,
    NatColoring,
    ThresholdRecord,
    find_bad_coloring,
    threshold_scan,
)


def test_reprs_are_literal():
    # The shrink failure is the one record built through replace: it
    # carries the round in which family 0 found no replacement.
    sys0 = system_from_universe(3, 45)
    assert repr(shrink(PrimedTopOracle(3, sys0), sys0, 4)) == (
        "PipelineFailure(stage='shrink', reason='no position above 2 in family 0 "
        "preserves all 11 tuple colors (10 tried)', exhaustive=True, level=None, "
        "round=1, family=0)"
    )
    assert repr(threshold_scan(2, 2, 2)[-1]) == (
        "ThresholdRecord(k=2, r=2, M=2, verdict='ESCAPABLE', "
        "witness=NatColoring(r=2, colors=(0, 0)), nodes=2)"
    )
    split, constant = (
        check_levels(make_oracle(descriptor, 2), layout_families(2, 2)).levels[0]
        for descriptor in ("seeded-hash:1", "constant:1")
    )
    assert repr(split) == (
        "LevelReport(level=0, constant=False, color=None, tuple_count=2, counterexample=("
        "CanonicalTuple(l=0, index=(0, 1), primed=(), entries=(1, 6)), 1, "
        "CanonicalTuple(l=0, index=(0, TOP), primed=(), entries=(1, 7)), 0))"
    )
    assert repr(constant) == (
        "LevelReport(level=0, constant=True, color=1, tuple_count=1, counterexample=None)"
    )
    # rationals is derived from values and is not printed.
    assert repr(make_string(2, 1)) == "PatternString(r=2, l=1, values=(2, 2, 4))"


RECORDS = [
    PipelineFailure("search", "none", True),
    NatColoring(2, (0, 1)),
    IndexFamily((1, 2), 5),
    make_string(3, 1),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    before = repr(record)
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


def test_threshold_record_equality_and_hash_ignore_nodes():
    witness = NatColoring(2, (0, 0, 1))
    a = ThresholdRecord(2, 2, 3, ESCAPABLE, witness, nodes=5)
    b = ThresholdRecord(2, 2, 3, ESCAPABLE, witness, nodes=700)
    assert a == b and hash(a) == hash(b)
    assert a != ThresholdRecord(2, 2, 4, FORCED, None, nodes=5)
    assert repr(a) != repr(b)


def test_pattern_string_equality_ignores_rationals():
    a = make_string(3, 1)
    b = PatternString(3, 1, a.values)
    assert a is not b and a == b and hash(a) == hash(b)
    assert b.rationals == a.rationals
    assert PatternString(3, 1, (1,)) != a
    # Records of different classes never compare equal.
    assert IndexFamily((), 0) != BadSearch(None, True, 0)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((True,), {"reason": "none"}),  # stage missing
        (("search", "none", True), {"depth": 1}),  # unknown field
        (("search", "none"), {"stage": "again", "exhaustive": True}),  # stage twice
        (("search", "none", True, 1, 2, 3, 4), {}),  # one positional too many
    ],
)
def test_constructor_refuses_missing_unknown_and_duplicate_arguments(args, kwargs):
    with pytest.raises(TypeError):
        PipelineFailure(*args, **kwargs)


def test_defaults_and_keywords_fill_fields_in_order():
    failure = PipelineFailure(exhaustive=False, stage="shrink", reason="r", family=2)
    assert (failure.level, failure.round, failure.family) == (None, None, 2)
    assert failure == PipelineFailure("shrink", "r", False, None, None, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IndexFamily((1, 1), 5),
        lambda: IndexFamily((2, 1), 5),
        lambda: IndexFamily((1, 2), 2),
        lambda: PatternString(2, 1, (2, 0, 4)),
        lambda: NatColoring(2, (0, 2)),
        lambda: ThresholdRecord(2, 2, 3, "MAYBE", None, 0),
        lambda: ThresholdRecord(2, 2, 3, ESCAPABLE, None, 0),
        lambda: OrderIso((1, 2), (3,)),
    ],
)
def test_post_init_refusals_still_fire(build):
    with pytest.raises(ValueError):
        build()


def test_replace_changes_one_field_and_checks_the_result():
    family = IndexFamily((1, 2), 5)
    assert family.replace(top=9) == IndexFamily((1, 2), 9)
    assert family == IndexFamily((1, 2), 5)
    with pytest.raises(ValueError):
        family.replace(top=2)
    with pytest.raises(TypeError):
        family.replace(size=3)


def test_search_outcomes_survive_a_pickle_round_trip():
    # Task results and rows cross the pipe of a --workers 2 scan.
    for record in (find_bad_coloring(2, 2, 6), find_bad_coloring(2, 2, 14),
                   *threshold_scan(2, 2, 14)[-2:]):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and repr(copy) == repr(record)
        assert copy.nodes == record.nodes
        with pytest.raises(AttributeError):
            copy.nodes = 0
