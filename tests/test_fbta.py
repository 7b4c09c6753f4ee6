"""Fractional bid-and-take: worked fixtures, invariants, and traces."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import CHORES, GOODS, Instance, gen_random_instance, wprop_share
from subsidy_fairdiv.fbta import (
    NORMALIZED,
    RAW_COST,
    FBTAError,
    StuckError,
    fbta,
    fractional_items,
)
from subsidy_fairdiv.ido import reduce_to_ido
from conftest import REFERENCE_FRACTIONS, fmatrix
from reference import agent_load, total_cost


def loads(inst, alloc):
    return [agent_load(inst, alloc, i) for i in range(inst.n)]


def test_raw_cost_run_reproduces_worked_example(reference_instance, reference_run):
    alloc, trace, _ = reference_run
    assert alloc.shares == fmatrix(REFERENCE_FRACTIONS)
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == [
        (0, 2, 0),
        (1, 2, 1),
        (2, 3, 1),
        (3, 5, 2),
        (4, 5, 4),
    ]
    successor_of = {r.agent: r for r in trace.successors}
    rec = successor_of[2]
    assert (rec.successor, rec.item) == (3, 1)
    assert 5 not in successor_of


def test_normalized_run_on_reference_instance(reference_instance):
    # Exact run of the ratio-key rule, derived by hand-executing the
    # selection loop; differs from the raw-cost run because agents with
    # larger totals bid lower ratios.
    alloc, trace = fbta(reference_instance)
    expected = fmatrix(
        (
            ("4/7", 0, 0, 0, 0, 0),
            (0, 0, 0, "1/2", 0, 0),
            ("3/7", 0, 0, "1/8", 0, 0),
            (0, 1, "1/8", 0, 0, 0),
            (0, 0, 0, "3/8", 1, "1/8"),
            (0, 0, "7/8", 0, 0, "7/8"),
        )
    )
    assert alloc.shares == expected
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == [
        (0, 2, 0),
        (3, 5, 2),
        (1, 2, 3),
        (2, 4, 3),
        (4, 5, 5),
    ]
    # the inactivated agents are exactly the successor tails, each at her
    # share; agent 5 never turns inactive and stays below hers
    tails = {r.agent for r in trace.successors}
    assert tails == {0, 1, 2, 3, 4}
    for i in tails:
        assert agent_load(reference_instance, alloc, i) == wprop_share(
            reference_instance, i
        )
    assert agent_load(reference_instance, alloc, 5) < wprop_share(reference_instance, 5)


def test_exact_fill_leaves_no_successor():
    # Both agents reach their share exactly on whole items: no
    # fractional item, no successor records.
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    alloc, trace = fbta(inst)
    assert alloc.shares == fmatrix(((1, 0), (0, 1)))
    assert trace.successors == ()
    assert fractional_items(alloc) == []


def test_single_agent_takes_everything():
    inst = Instance(CHORES, ("1",), (("0.3", "0.8"),))
    alloc, _ = fbta(inst)
    assert agent_load(inst, alloc, 0) == total_cost(inst, 0)


def test_zero_cost_item_taken_whole():
    # A zero-cost selected item cannot trip the overflow branch.
    inst = Instance(CHORES, ("1/2", "1/2"), (("0", "1"), ("0.5", "0.5")))
    ido_inst = reduce_to_ido(inst)
    alloc, _ = fbta(ido_inst)
    assert alloc.is_complete()


def test_degenerate_agent_absorbs_for_free():
    # An all-zero row never turns inactive and soaks up whatever the
    # loaded agent may not take; nobody needs a subsidy.
    inst = Instance(CHORES, ("1/2", "1/2"), (("0", "0"), ("1", "1")))
    alloc, trace = fbta(inst)
    assert alloc.is_complete()
    assert agent_load(inst, alloc, 1) <= wprop_share(inst, 1)


def test_rejects_non_ido_and_wrong_kind(reference_instance):
    bad = Instance(CHORES, ("1/2", "1/2"), (("0.5", "0.2"), ("0.1", "0.9")))
    with pytest.raises(FBTAError):
        fbta(bad)
    with pytest.raises(FBTAError):
        fbta(reference_instance, selection="greedy")
    # raw_cost is a chores rule only
    goods = Instance(GOODS, ("1/2", "1/2"), (("0.2", "0.5"), ("0.1", "0.9")))
    with pytest.raises(FBTAError):
        fbta(goods, selection=RAW_COST)
    fbta(goods)


def test_raw_cost_can_get_stuck_where_normalized_completes():
    inst = Instance(
        CHORES, ("1/2", "1/2"), (("1/5", "1/2", "1/2"), ("3/10", "1", "1"))
    )
    with pytest.raises(StuckError):
        fbta(inst, selection=RAW_COST)
    alloc, _ = fbta(inst, selection=NORMALIZED)
    assert alloc.is_complete()


def test_goods_two_agents_unequal_weights():
    # Weights 1/4 and 3/4 on identical value rows (1/2, 1): shares are
    # 3/8 and 9/8.  Agent 0 fills on 3/4 of the first item; the lone
    # remaining agent takes everything else.
    inst = Instance(GOODS, ("1/4", "3/4"), (("1/2", "1"), ("1/2", "1")))
    alloc, trace = fbta(inst)
    assert alloc.shares == fmatrix((("3/4", 0), ("1/4", 1)))
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == [(0, 1, 0)]
    assert agent_load(inst, alloc, 0) == wprop_share(inst, 0)
    assert agent_load(inst, alloc, 1) == wprop_share(inst, 1)


def test_goods_exact_fill_no_fractional_item():
    inst = Instance(GOODS, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    alloc, trace = fbta(inst)
    assert fractional_items(alloc) == []
    assert trace.successors == ()


def test_goods_single_agent():
    inst = Instance(GOODS, ("1",), (("0.2", "0.9"),))
    alloc, _ = fbta(inst)
    assert agent_load(inst, alloc, 0) == total_cost(inst, 0)


def test_fractional_items_of_worked_example(reference_run):
    alloc, _, _ = reference_run
    assert fractional_items(alloc) == [
        (0, (0, 2)),
        (1, (1, 2, 3)),
        (2, (3, 5)),
        (4, (4, 5)),
    ]


def test_fractional_items_integral_allocation():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    alloc, _ = fbta(inst)
    assert fractional_items(alloc) == []


def test_determinism(reference_instance):
    a1, t1 = fbta(reference_instance)
    a2, t2 = fbta(reference_instance)
    assert a1 == a2
    assert t1 == t2


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("seed", range(40))
def test_invariants_on_random_instances(kind, seed):
    inst = gen_random_instance(
        n=1 + seed % 7, m=seed % 12, kind=kind, seed=seed, force_ido=True
    )
    alloc, trace = fbta(inst)
    assert alloc.is_complete()
    fracs = fractional_items(alloc)
    assert len(fracs) <= max(inst.n - 1, 0)
    for i in range(inst.n):
        load = agent_load(inst, alloc, i)
        share = wprop_share(inst, i)
        assert load <= share if kind == CHORES else load >= share
    # at most one successor per agent, and edges connect positive sharers
    tails = [r.agent for r in trace.successors]
    assert len(tails) == len(set(tails))
    for rec in trace.successors:
        assert alloc.shares[rec.agent][rec.item] > 0
        assert alloc.shares[rec.successor][rec.item] > 0
    # each item's column sums to one
    for column in alloc.columns:
        assert sum(x for _, x in column) == 1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_wprop_property(data):
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(0, 7), label="m")
    kind = data.draw(st.sampled_from([CHORES, GOODS]), label="kind")
    denom = data.draw(st.sampled_from([4, 6, 10]), label="denom")
    raw_w = [data.draw(st.integers(1, 6)) for _ in range(n)]
    costs = tuple(
        tuple(
            sorted(Fraction(data.draw(st.integers(0, denom)), denom) for _ in range(m))
        )
        for _ in range(n)
    )
    inst = Instance(kind, tuple(Fraction(w, sum(raw_w)) for w in raw_w), costs)
    alloc, _ = fbta(inst)
    assert alloc.is_complete()
    for i in range(n):
        load = agent_load(inst, alloc, i)
        share = wprop_share(inst, i)
        assert load <= share if kind == CHORES else load >= share
