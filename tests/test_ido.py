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
    RankProfile,
    compute_subsidies,
    gen_random_instance,
)
from subsidy_fairdiv.ido import is_ido, lift_allocation, reduce_to_ido


def test_reference_instance_is_ido(reference_instance):
    assert is_ido(reference_instance)


def test_opposite_orders_are_not_ido():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    assert not is_ido(inst)


def test_single_agent_sorted_is_ido():
    inst = Instance(CHORES, ("1",), (("0.9", "0.1", "0.5"),))
    assert not is_ido(inst)
    ido_inst, _ = reduce_to_ido(inst)
    assert is_ido(ido_inst)


def test_reduce_already_ido_is_identity(reference_instance):
    ido_inst, _ = reduce_to_ido(reference_instance)
    assert ido_inst.costs == reference_instance.costs
    assert ido_inst.weights == reference_instance.weights


def test_reduce_sorts_each_row():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    ido_inst, profile = reduce_to_ido(inst)
    assert ido_inst.costs == (
        (Fraction(1, 5), Fraction(1, 2)),
        (Fraction(3, 10), Fraction(3, 5)),
    )
    # cheapest first, ties by item index
    assert profile.sigma == ((0, 1), (1, 0))


def test_reduce_preserves_row_totals():
    inst = gen_random_instance(n=4, m=7, seed=11)
    ido_inst, _ = reduce_to_ido(inst)
    for i in range(4):
        assert ido_inst.total_cost(i) == inst.total_cost(i)


def test_lift_identity_on_ido_chores(reference_instance):
    ido_inst, profile = reduce_to_ido(reference_instance)
    alloc = IntegralAllocation((0, 3, 5, 1, 4, 5))
    lifted = lift_allocation(reference_instance, profile, alloc)
    assert lifted == alloc


def test_lift_two_agent_example():
    # Rows (0.2, 0.5) and (0.6, 0.3); slot owners: agent 0 gets the
    # cheap slot, agent 1 the expensive one.  Dominance must hold
    # agent by agent.
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.2", "0.5"), ("0.6", "0.3")))
    ido_inst, profile = reduce_to_ido(inst)
    ido_alloc = IntegralAllocation((0, 1))
    lifted = lift_allocation(inst, profile, ido_alloc)
    for agent in range(2):
        assert lifted.bundle_cost(inst, agent) <= ido_alloc.bundle_cost(
            ido_inst, agent
        )


@pytest.mark.parametrize("kind, ido_owner", [(CHORES, (0, 1)), (GOODS, (1, 0))])
def test_lift_follows_the_profile_order(kind, ido_owner):
    # every cost is tied, so either order is a preference order; agent 0
    # owns the first slot the lift visits and her profile lists item 1
    # first, where sorting her row would list item 0 first
    inst = Instance(kind, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    profile = RankProfile(((1, 0), (0, 1)))
    lifted = lift_allocation(inst, profile, IntegralAllocation(ido_owner))
    assert lifted.owner == (1, 0)


@pytest.mark.parametrize(
    "sigma",
    [
        ((0, 0, 1), (0, 1, 2)),  # a repeated item
        ((0, 1), (0, 1, 2)),  # too short
        ((0, 1, 2, 3), (0, 1, 2)),  # too long
        ((-1, 0, 1), (0, 1, 2)),  # an index outside the items
        ((0, 1, 3), (0, 1, 2)),
        ((0, 1, 2),),  # a row missing
    ],
)
def test_lift_rejects_a_malformed_profile(sigma):
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "2", "3"), ("1", "2", "3")))
    with pytest.raises(ModelError):
        lift_allocation(inst, RankProfile(sigma), IntegralAllocation((0, 1, 0)))


@pytest.mark.parametrize("owner", [(-1, 0), (5, 0)])
def test_lift_rejects_an_owner_outside_the_agents(owner):
    inst = Instance(CHORES, ("1/2", "1/2"), (("1/2", "1"), ("1/2", "1")))
    ido_inst, profile = reduce_to_ido(inst)
    with pytest.raises(ModelError, match="unknown agent"):
        lift_allocation(ido_inst, profile, IntegralAllocation(owner))


def test_lift_single_agent_keeps_total():
    inst = Instance(CHORES, ("1",), (("0.9", "0.1"),))
    ido_inst, profile = reduce_to_ido(inst)
    lifted = lift_allocation(inst, profile, IntegralAllocation((0, 0)))
    assert lifted.bundle_cost(inst, 0) == inst.total_cost(0)


def _random_allocation(n, m, seed):
    import random

    rng = random.Random(seed)
    return IntegralAllocation(tuple(rng.randrange(n) for _ in range(m)))


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("seed", range(25))
def test_lift_dominance_random(kind, seed):
    inst = gen_random_instance(n=2 + seed % 5, m=4 + seed % 7, kind=kind, seed=seed)
    ido_inst, profile = reduce_to_ido(inst)
    ido_alloc = _random_allocation(inst.n, inst.m, seed)
    lifted = lift_allocation(inst, profile, ido_alloc)
    for agent in range(inst.n):
        lifted_cost = lifted.bundle_cost(inst, agent)
        ido_cost = ido_alloc.bundle_cost(ido_inst, agent)
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
    ido_inst, profile = reduce_to_ido(inst)
    owners = tuple(data.draw(st.integers(0, n - 1)) for _ in range(m))
    ido_alloc = IntegralAllocation(owners)
    lifted = lift_allocation(inst, profile, ido_alloc)
    for agent in range(n):
        diff = lifted.bundle_cost(inst, agent) - ido_alloc.bundle_cost(ido_inst, agent)
        assert diff <= 0 if kind == CHORES else diff >= 0
