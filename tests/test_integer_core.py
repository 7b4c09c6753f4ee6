"""Reduction, lift and bid-and-take against their plain-Fraction references.

Each instance scales its cost rows to integers once and keeps them; the
reduction hands the reduced instance its rows permuted and its totals
unchanged; bid-and-take selects by comparing ``r_a[e] * R_b`` with
``r_b[e] * R_a`` and stores only the positive fractions of each item.  The
references in ``tests/reference.py`` sort, pick and take with ``Fraction``
keys and capacities.  The properties require the same sigma, reduced rows,
lifted owners, columns, dense shares, sharers, trace events, successors,
last items and ``StuckError``s, on the reference instance strategy and its
``EDGE_CASES`` (the goods lone-agent path, m = 0, n = 1, zero rows).
"""
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    Instance,
    IntegralAllocation,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv.fbta import NORMALIZED, RAW_COST, StuckError, bid_and_take
from subsidy_fairdiv.ido import is_ido, lift_allocation, reduce_to_ido
from subsidy_fairdiv.model import scaled
from reference import (
    LONE_AGENT,
    instances,
    reference_bid_and_take,
    reference_is_ido,
    reference_lift,
    reference_reduce,
    with_edge_cases,
)


def fresh(inst):
    """The same instance with no cache carried over."""
    return Instance(inst.kind, inst.weights, inst.costs)


def assert_run_matches_reference(inst, selection):
    try:
        columns, events, successors, last_item = reference_bid_and_take(inst, selection)
    except StuckError:
        with pytest.raises(StuckError):
            bid_and_take(inst, selection)
        return
    alloc, trace = bid_and_take(inst, selection)
    assert (alloc.n, alloc.m) == (inst.n, inst.m)
    assert alloc.columns == columns
    assert alloc.shares == tuple(
        tuple(dict(columns[e]).get(i, 0) for e in range(inst.m)) for i in range(inst.n)
    )
    assert [alloc.sharers(e) for e in range(inst.m)] == [
        tuple(a for a, _ in column) for column in columns
    ]
    assert [(ev.item, ev.agent, ev.fraction, ev.inactivated) for ev in trace.events] == events
    assert all(type(ev.fraction) is Fraction for ev in trace.events)
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == successors
    assert trace.last_item == last_item
    assert alloc.is_complete()


@with_edge_cases
@given(instances())
@settings(max_examples=300, deadline=None)
def test_reduction_carries_rows_and_totals(inst):
    ido_inst, profile = reduce_to_ido(inst)
    costs, sigma = reference_reduce(inst)
    assert ido_inst.costs == costs
    assert profile.sigma == sigma
    # what the reduction carries over equals a fresh scaling
    again = fresh(ido_inst)
    assert ido_inst._rows == again._rows
    assert ido_inst._units == again._units
    assert [wprop_share(ido_inst, i) for i in range(ido_inst.n)] == [
        wprop_share(again, i) for i in range(again.n)
    ]
    assert is_ido(ido_inst) and reference_is_ido(ido_inst)


@with_edge_cases
@given(instances())
@settings(max_examples=200, deadline=None)
def test_is_ido_matches_reference(inst):
    assert is_ido(inst) == reference_is_ido(inst)


@given(instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_lift_matches_reference(inst, data):
    _, profile = reduce_to_ido(inst)
    ido_owner = tuple(data.draw(st.integers(0, inst.n - 1)) for _ in range(inst.m))
    lifted = lift_allocation(inst, profile, IntegralAllocation(ido_owner))
    assert lifted.owner == reference_lift(inst, ido_owner)


@with_edge_cases
@given(instances(max_n=10, max_m=14))
@settings(max_examples=400, deadline=None)
def test_normalized_run_matches_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    assert_run_matches_reference(ido_inst, NORMALIZED)


@with_edge_cases
@given(instances(kinds=(CHORES,), max_n=10, max_m=14))
@settings(max_examples=300, deadline=None)
def test_raw_cost_run_matches_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    assert_run_matches_reference(ido_inst, RAW_COST)


def test_examples_reach_the_lone_agent_path_and_stuck_runs():
    _, trace = bid_and_take(reduce_to_ido(LONE_AGENT)[0], NORMALIZED)
    assert [(ev.item, ev.agent) for ev in trace.events] == [(0, 0), (1, 0), (1, 1), (2, 1)]
    stuck = Instance(
        CHORES,
        ("1/3", "1/3", "1/3"),
        (("0", "1/2", "1/2"), ("0", "1/2", "1"), ("0", "1/2", "1")),
    )
    with pytest.raises(StuckError):
        reference_bid_and_take(stuck, RAW_COST)
    with pytest.raises(StuckError):
        bid_and_take(stuck, RAW_COST)


def test_row_integers_reuse_numerators():
    big = 10**30 + 7
    inst = Instance(CHORES, ("1",), ((Fraction(big - 1, big), Fraction(1, big), Fraction(0)),))
    (ints, d), = inst._rows
    assert d == big and ints == (big - 1, 1, 0)
    assert ints[0] is inst.costs[0][0].numerator
    # big entries already over d beside smaller denominators still lend theirs
    mixed = Instance(
        CHORES, ("1",), ((Fraction(2 * big - 1, 2 * big), Fraction(1, 2), Fraction(3, big)),)
    )
    (ints, d), = mixed._rows
    assert d == 2 * big and ints == (2 * big - 1, big, 6)
    assert ints[0] is mixed.costs[0][0].numerator


class Tagged(Fraction):
    """A ``Fraction`` subclass: an instance keeps such entries as they are."""


@st.composite
def entries(draw):
    """A rational in [-1, 2], some of them below 0 or above 1, on a grid up to 10^40."""
    q = draw(st.sampled_from((1, 2, 3, 6, 997, 10**40)))
    return draw(st.sampled_from((Fraction, Tagged)))(draw(st.integers(-q, 2 * q)), q)


@given(st.lists(entries(), max_size=8))
@settings(max_examples=300, deadline=None)
def test_scaled_matches_a_plain_recomputation(row):
    ints, d = scaled(row)
    assert d == lcm(*(v.denominator for v in row))
    assert ints == tuple((v * d).numerator for v in row)
    assert all(p is v.numerator for p, v in zip(ints, row) if v.denominator == d)
    inst = Instance(CHORES, ("1",), (row,))
    assert inst._rows == ((ints, d),)
    assert validate_instance(inst) == tuple(
        f"cost of item {e} for agent 0 is {v}, {'below 0' if v < 0 else 'exceeds 1'}"
        for e, v in enumerate(row)
        if not 0 <= v <= 1
    )


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_reduction_of_zero_one_and_two_items(kind, m):
    # agent 1 ranks the two items the other way round from agent 0
    inst = Instance(kind, ("1/4", "3/4"), (("1/3", "1/2")[:m], ("1", "0")[:m]))
    ido_inst, profile = reduce_to_ido(inst)
    assert "costs" not in vars(ido_inst)
    for i, order in enumerate(profile.sigma):
        slots = order if kind == CHORES else order[::-1]
        ints, d = inst._rows[i]
        assert ido_inst._rows[i] == (tuple(ints[e] for e in slots), d)
        assert type(ido_inst.costs[i]) is tuple and len(ido_inst.costs[i]) == m
        assert all(ido_inst.costs[i][k] is inst.costs[i][e] for k, e in enumerate(slots))
    assert ido_inst.costs == reference_reduce(inst)[0]
