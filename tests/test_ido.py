"""Identical-ordering reduction and the lifting picking sequence."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    Instance,
    IntegralAllocation,
    ModelError,
    compute_subsidies,
    gen_random_instance,
)
from subsidy_fairdiv.ido import is_ido, lift_allocation, reduce_to_ido
from reference import bundle_cost, reference_lift, reference_reduce, total_cost


def test_reference_instance_is_ido(reference_instance):
    assert is_ido(reference_instance)


def test_opposite_orders_are_not_ido():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    assert not is_ido(inst)


def test_single_agent_sorted_is_ido():
    inst = Instance(CHORES, ("1",), (("0.9", "0.1", "0.5"),))
    assert not is_ido(inst)
    ido_inst = reduce_to_ido(inst)
    assert is_ido(ido_inst)


def test_reduce_already_ido_is_identity(reference_instance):
    ido_inst = reduce_to_ido(reference_instance)
    assert ido_inst.costs == reference_instance.costs
    assert ido_inst.weights == reference_instance.weights


def test_reduce_sorts_each_row():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    ido_inst = reduce_to_ido(inst)
    assert ido_inst.costs == (
        (Fraction(1, 5), Fraction(1, 2)),
        (Fraction(3, 10), Fraction(3, 5)),
    )
    # cheapest first, ties by item index
    assert inst._orders == ((0, 1), (1, 0))


def test_reduce_preserves_row_totals():
    inst = gen_random_instance(n=4, m=7, seed=11)
    ido_inst = reduce_to_ido(inst)
    for i in range(4):
        assert total_cost(ido_inst, i) == total_cost(inst, i)


def test_lift_identity_on_ido_chores(reference_instance):
    alloc = IntegralAllocation((0, 3, 5, 1, 4, 5))
    lifted = lift_allocation(reference_instance, alloc)
    assert lifted == alloc


def test_lift_two_agent_example():
    # Rows (0.2, 0.5) and (0.6, 0.3); slot owners: agent 0 gets the
    # cheap slot, agent 1 the expensive one.  Dominance must hold
    # agent by agent.
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    ido_inst = reduce_to_ido(inst)
    ido_alloc = IntegralAllocation((0, 1))
    lifted = lift_allocation(inst, ido_alloc)
    for agent in range(2):
        assert bundle_cost(inst, lifted, agent) <= bundle_cost(ido_inst, ido_alloc, agent)


@pytest.mark.parametrize("kind, ido_owner", [(CHORES, (0, 1)), (GOODS, (1, 0))])
def test_lift_follows_the_profile_order(kind, ido_owner):
    # agent 0 owns the first slot the lift visits, and her favorite is
    # item 1: the first of her rank order for chores, the last for goods
    falling, rising = ("1", "1/2"), ("1/2", "1")
    rows = (falling, rising) if kind == CHORES else (rising, falling)
    inst = Instance(kind, ("1/2", "1/2"), rows)
    lifted = lift_allocation(inst, IntegralAllocation(ido_owner))
    assert lifted.owner == (1, 0)


@pytest.mark.parametrize(
    "costs",
    [
        (("1/2", "1/4"), ("1/2", "0", "1/4")),  # a row longer than row 0
        (("1/2", "0", "1/4"), ("1/2", "1/4")),  # a row shorter than row 0
        (("1/2", "2"), ("1/2", "1/4")),  # a cost above 1
    ],
)
def test_lift_rejects_an_invalid_instance(costs):
    # a short row would otherwise run its owner's cursor dry
    inst = Instance(CHORES, ("1/2", "1/2"), costs)
    with pytest.raises(ModelError, match="invalid instance"):
        lift_allocation(inst, IntegralAllocation((0, 1)))


@pytest.mark.parametrize(
    "costs",
    [
        (("1/2", "1/4"), ("1/2", "0", "1/4")),  # a row longer than row 0
        (("1/2", "0", "1/4"), ("1/2", "1/4")),  # a row shorter than row 0
    ],
)
def test_reduce_rejects_a_ragged_instance(costs):
    # neither row is cut to row 0's length nor read past its end
    inst = Instance(CHORES, ("1/2", "1/2"), costs)
    with pytest.raises(ModelError, match=r"cost rows have inconsistent lengths \[2, 3\]"):
        reduce_to_ido(inst)


@pytest.mark.parametrize("owner", [(-1, 0), (5, 0)])
def test_lift_rejects_an_owner_outside_the_agents(owner):
    inst = Instance(CHORES, ("1/2", "1/2"), (("1/2", "1"), ("1/2", "1")))
    with pytest.raises(ModelError, match="unknown agent"):
        lift_allocation(inst, IntegralAllocation(owner))


def test_lift_single_agent_keeps_total():
    inst = Instance(CHORES, ("1",), (("0.9", "0.1"),))
    lifted = lift_allocation(inst, IntegralAllocation((0, 0)))
    assert bundle_cost(inst, lifted, 0) == total_cost(inst, 0)


def _random_allocation(n, m, seed):
    import random

    rng = random.Random(seed)
    return IntegralAllocation(tuple(rng.randrange(n) for _ in range(m)))


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("seed", range(25))
def test_lift_dominance_random(kind, seed):
    inst = gen_random_instance(n=2 + seed % 5, m=4 + seed % 7, kind=kind, seed=seed)
    ido_inst = reduce_to_ido(inst)
    ido_alloc = _random_allocation(inst.n, inst.m, seed)
    lifted = lift_allocation(inst, ido_alloc)
    for agent in range(inst.n):
        lifted_cost = bundle_cost(inst, lifted, agent)
        ido_cost = bundle_cost(ido_inst, ido_alloc, agent)
        if kind == CHORES:
            assert lifted_cost <= ido_cost
        else:
            assert lifted_cost >= ido_cost
    # consequence: subsidies never grow under lifting
    s_lift = compute_subsidies(inst, lifted)
    s_ido = compute_subsidies(ido_inst, ido_alloc)
    assert s_lift.total <= s_ido.total
    for a, b in zip(s_lift.amounts, s_ido.amounts):
        assert a <= b


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lift_dominance_property(data):
    n = data.draw(st.integers(1, 4), label="n")
    m = data.draw(st.integers(1, 6), label="m")
    kind = data.draw(st.sampled_from([CHORES, GOODS]), label="kind")
    grid = st.integers(0, 8)
    costs = tuple(
        tuple(Fraction(data.draw(grid), 8) for _ in range(m)) for _ in range(n)
    )
    weights = tuple(Fraction(1, n) for _ in range(n))
    inst = Instance(kind, weights, costs)
    ido_inst = reduce_to_ido(inst)
    owners = tuple(data.draw(st.integers(0, n - 1)) for _ in range(m))
    ido_alloc = IntegralAllocation(owners)
    lifted = lift_allocation(inst, ido_alloc)
    for agent in range(n):
        diff = bundle_cost(inst, lifted, agent) - bundle_cost(ido_inst, ido_alloc, agent)
        assert diff <= 0 if kind == CHORES else diff >= 0


TIED = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_orders_are_the_reference_order_on_tied_and_ragged_rows(data):
    # few distinct values, so most of each order is tie-breaking; a row may
    # have its own length, and zero or one items
    kind = data.draw(st.sampled_from([CHORES, GOODS]), label="kind")
    m = data.draw(st.integers(0, 5), label="m")
    lengths = st.integers(0, 5) if data.draw(st.booleans(), label="ragged") else st.just(m)
    rows = [
        data.draw(st.lists(TIED, min_size=k, max_size=k), label="row")
        for k in [m, *data.draw(st.lists(lengths, max_size=3), label="lengths")]
    ]
    inst = Instance(kind, tuple(Fraction(1, len(rows)) for _ in rows), rows)
    assert len(inst._orders) == len(rows)
    for row, order in zip(rows, inst._orders):
        # the reference lists favorite first; goods keep their favorite last
        (sigma,) = reference_reduce(Instance(kind, ("1",), (row,)))[1]
        assert order == (sigma if kind == CHORES else sigma[::-1])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lift_matches_the_reference_on_tied_rows(data):
    kind = data.draw(st.sampled_from([CHORES, GOODS]), label="kind")
    n = data.draw(st.integers(1, 4), label="n")
    m = data.draw(st.integers(0, 6), label="m")
    rows = [data.draw(st.lists(TIED, min_size=m, max_size=m), label="row") for _ in range(n)]
    inst = Instance(kind, tuple(Fraction(1, n) for _ in range(n)), rows)
    owners = tuple(data.draw(st.integers(0, n - 1)) for _ in range(m))
    assert lift_allocation(inst, IntegralAllocation(owners)).owner == reference_lift(inst, owners)


@pytest.mark.parametrize("kind", [CHORES, GOODS])
def test_a_reduced_instance_keeps_its_source_costs_rows_and_orders(kind):
    inst = gen_random_instance(n=3, m=5, kind=kind, seed=2)
    permutation = reduce_to_ido(inst)._permutation
    assert len(permutation) == 3
    assert all(x is y for x, y in zip(permutation, (inst.costs, inst._rows, inst._orders)))
