"""Reduction, lift and bid-and-take against their plain-Fraction references.

Each instance scales its cost rows to integers once and keeps them; the
reduction hands the reduced instance its rows permuted and its totals
unchanged; bid-and-take selects by comparing ``r_a[e] * R_b`` with
``r_b[e] * R_a``, each ``R_a`` read off the units, and stores only the
positive fractions of each item.  The
references in ``tests/reference.py`` sort, pick and take with ``Fraction``
keys and capacities.  The properties require the same sigma, reduced rows,
lifted owners, columns (of ``Fraction``s), dense shares, sharers,
successors and ``StuckError``s, on the reference instance strategy and its
``EDGE_CASES`` (the goods lone-agent path, m = 0, n = 1, zero rows).
Validation reads each row's range from the ends of its rank order; its
out-of-range messages must equal a plain scan of the ``Fraction``s.
"""
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    Instance,
    IntegralAllocation,
    gen_random_instance,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv.fbta import NORMALIZED, RAW_COST, StuckError, _bid_and_take, fbta
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
        columns, successors = reference_bid_and_take(inst, selection)
    except StuckError:
        with pytest.raises(StuckError):
            _bid_and_take(inst, inst._rows, selection)
        return
    alloc, trace = _bid_and_take(inst, inst._rows, selection)
    assert (alloc.n, alloc.m) == (inst.n, inst.m)
    assert alloc.columns == columns
    assert alloc.shares == tuple(
        tuple(dict(columns[e]).get(i, 0) for e in range(inst.m)) for i in range(inst.n)
    )
    assert [alloc.sharers(e) for e in range(inst.m)] == [
        tuple(a for a, _ in column) for column in columns
    ]
    assert all(type(x) is Fraction for column in alloc.columns for _, x in column)
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == successors
    assert alloc.is_complete()


@with_edge_cases
@given(instances())
@settings(max_examples=300, deadline=None)
def test_reduction_carries_rows_and_totals(inst):
    ido_inst = reduce_to_ido(inst)
    costs, sigma = reference_reduce(inst)
    assert ido_inst.costs == costs
    # the reduced row order: favorite first for chores, last for goods
    assert inst._orders == (sigma if inst.kind == CHORES else tuple(s[::-1] for s in sigma))
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
    ido_owner = tuple(data.draw(st.integers(0, inst.n - 1)) for _ in range(inst.m))
    lifted = lift_allocation(inst, IntegralAllocation(ido_owner))
    assert lifted.owner == reference_lift(inst, ido_owner)


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("seed", range(3))
def test_lift_matches_reference_on_wide_instances(kind, seed):
    # m >> n: each owner's cursor passes many items other owners took
    inst = gen_random_instance(10, 200, kind, seed=seed)
    rng = random.Random(seed)
    ido_owner = tuple(rng.randrange(inst.n) for _ in range(inst.m))
    lifted = lift_allocation(inst, IntegralAllocation(ido_owner))
    assert lifted.owner == reference_lift(inst, ido_owner)


@with_edge_cases
@given(instances(max_n=10, max_m=14))
@settings(max_examples=400, deadline=None)
def test_normalized_run_matches_reference(inst):
    ido_inst = reduce_to_ido(inst)
    assert_run_matches_reference(ido_inst, NORMALIZED)


@with_edge_cases
@given(instances(kinds=(CHORES,), max_n=10, max_m=14))
@settings(max_examples=300, deadline=None)
def test_raw_cost_run_matches_reference(inst):
    ido_inst = reduce_to_ido(inst)
    assert_run_matches_reference(ido_inst, RAW_COST)


def test_examples_reach_the_lone_agent_path_and_stuck_runs():
    # agent 0 fills up halfway through item 1; the lone agent 1 takes the rest
    alloc, trace = fbta(reduce_to_ido(LONE_AGENT))
    half = Fraction(1, 2)
    assert alloc.columns == (((0, 1),), ((0, half), (1, half)), ((1, 1),))
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == [(0, 1, 1)]
    stuck = Instance(
        CHORES,
        ("1/3", "1/3", "1/3"),
        (("0", "1/2", "1/2"), ("0", "1/2", "1"), ("0", "1/2", "1")),
    )
    with pytest.raises(StuckError):
        reference_bid_and_take(stuck, RAW_COST)
    with pytest.raises(StuckError):
        fbta(stuck, RAW_COST)


@with_edge_cases
@given(instances())
@settings(max_examples=200, deadline=None)
def test_row_totals_read_from_the_units(inst):
    # the normalized keys take R_i as the share p_i * R_i over p_i
    assert [share // w.numerator for (_, share, _), w in zip(inst._units, inst.weights)] == [
        sum(ints) for ints, _ in inst._rows
    ]


def test_an_all_zero_row_totals_zero_in_the_units():
    inst = Instance(GOODS, ("2/3", "1/3"), (("0", "0", "0"), ("1/4", "1/2", "1")))
    assert [share // w.numerator for (_, share, _), w in zip(inst._units, inst.weights)] == [
        0, 7
    ]
    assert_run_matches_reference(inst, NORMALIZED)


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


def plain_range_violations(costs):
    """The out-of-range messages of ``validate_instance``, from a plain scan of the ``Fraction``s."""
    return tuple(
        f"cost of item {e} for agent {i} is {v}, {'below 0' if v < 0 else 'exceeds 1'}"
        for i, row in enumerate(costs)
        for e, v in enumerate(row)
        if not 0 <= v <= 1
    )


@given(st.lists(entries(), max_size=8), st.sampled_from((CHORES, GOODS)))
@settings(max_examples=300, deadline=None)
def test_scaled_matches_a_plain_recomputation(row, kind):
    ints, d = scaled(row)
    assert d == lcm(*(v.denominator for v in row))
    assert ints == tuple((v * d).numerator for v in row)
    assert all(p is v.numerator for p, v in zip(ints, row) if v.denominator == d)
    inst = Instance(kind, ("1",), (row,))
    assert inst._rows == ((ints, d),)
    assert validate_instance(inst) == plain_range_violations((row,))


# Each row's range is read from the two ends of its rank order, which runs
# from the lowest entry up for chores and from the highest down for goods,
# so the cases put a lone bad entry at either end, tie the extremes, make
# every entry equal, or leave a row of zero or one item.
RANGE_ROWS = [
    ("-1/2", "1/2"),  # one entry below 0, lowest
    ("1/2", "3/2"),  # one entry above 1, highest
    ("1/2", "-1/3", "1/4"),  # the lowest in the middle
    ("1/4", "5/4", "1/2"),  # the highest in the middle
    ("-1", "1/2", "-1", "2", "2"),  # ties at both extremes, both out of range
    ("0", "1", "0", "1"),  # ties at both extremes, both bounds met exactly
    ("3/2", "3/2", "3/2"),  # all equal, above 1
    ("-1/7", "-1/7"),  # all equal, below 0
    ("1/3", "1/3", "1/3"),  # all equal, in range
    ("-1",),  # one item, below 0
    ("2",),  # one item, above 1
    ("1",),  # one item, in range
    (),  # no items
]


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("row", RANGE_ROWS)
def test_a_row_range_comes_from_the_ends_of_its_order(kind, row):
    inst = Instance(kind, ("1",), (row,))
    assert validate_instance(inst) == plain_range_violations(inst.costs)
    ((ints, _),) = inst._rows
    (order,) = inst._orders
    # non-decreasing for both kinds: goods' favorite-first order, reversed
    expected = sorted(range(len(row)), key=ints.__getitem__, reverse=kind == GOODS)
    assert list(order) == (expected[::-1] if kind == GOODS else expected)


@pytest.mark.parametrize(
    "costs",
    [
        (("1/2", "-1/4"), ("1/2", "0", "5/4")),  # a row longer than row 0
        (("1/2", "0", "-1/4"), ("5/4", "1/4")),  # a row shorter than row 0
        (("2", "1/2"), ()),  # an empty row beside a full one
    ],
)
@pytest.mark.parametrize("kind", [CHORES, GOODS])
def test_ragged_rows_are_ranged_over_their_own_items(kind, costs):
    inst = Instance(kind, ("1/2", "1/2"), costs)
    lengths = sorted({len(row) for row in costs})
    assert validate_instance(inst) == (
        f"cost rows have inconsistent lengths {lengths}",
        *plain_range_violations(inst.costs),
    )
    assert [sorted(order) for order in inst._orders] == [list(range(len(r))) for r in costs]


def test_an_unknown_kind_sorts_as_chores_and_is_still_ranged():
    inst = Instance("services", ("1",), (("3/2", "-1", "1/2"),))
    assert inst._orders == ((1, 2, 0),)
    assert validate_instance(inst) == (
        "unknown kind 'services'",
        *plain_range_violations(inst.costs),
    )


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_reduction_of_zero_one_and_two_items(kind, m):
    # agent 1 ranks the two items the other way round from agent 0
    inst = Instance(kind, ("1/4", "3/4"), (("1/3", "1/2")[:m], ("1", "0")[:m]))
    ido_inst = reduce_to_ido(inst)
    assert "costs" not in vars(ido_inst)
    for i, slots in enumerate(inst._orders):
        ints, d = inst._rows[i]
        assert ido_inst._rows[i] == (tuple(ints[e] for e in slots), d)
        assert type(ido_inst.costs[i]) is tuple and len(ido_inst.costs[i]) == m
        assert all(ido_inst.costs[i][k] is inst.costs[i][e] for k, e in enumerate(slots))
    assert ido_inst.costs == reference_reduce(inst)[0]
