"""The integer-native core against the code it replaced.

Each instance scales its cost rows to integers once and keeps them; the
reduction hands the reduced instance its rows permuted and its totals
unchanged; bid-and-take selects by comparing ``r_a[e] * R_b`` with
``r_b[e] * R_a`` and stores only the positive fractions of each item.  The
reference copies below are the code this replaced: bid-and-take with
per-comparison keys from ``as_integer_ratio``, load and share tracking and
a dense n x m matrix, and the reduction and lift that scale a row on every
call.  The properties require the same sigma, reduced rows, lifted owners,
fractional shares, sharers, trace events, successors and ``StuckError``s,
on tie-heavy grids with all-zero rows, fewer items than agents, the goods
lone-agent path, the raw-cost rule and weights near 10^6 in denominator.
"""
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    NORMALIZED,
    RAW_COST,
    Instance,
    IntegralAllocation,
    StuckError,
    is_ido,
    lift_allocation,
    reduce_to_ido,
    wprop_share,
)
from subsidy_fairdiv.fbta import bid_and_take
from subsidy_fairdiv.model import ZERO


# ---------------------------------------------------------------------------
# Reference copies of the replaced code
# ---------------------------------------------------------------------------

def reference_scaled(values):
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def reference_ranking(items, row, descending):
    keys, _ = reference_scaled(row)
    return sorted(items, key=keys.__getitem__, reverse=descending)


def reference_reduce(inst):
    """(reduced rows, sigma), every row scaled again for its sort."""
    goods = inst.kind == GOODS
    items = list(range(inst.m))
    sigma, costs = [], []
    for row in inst.costs:
        order = reference_ranking(items, row, descending=goods)
        sigma.append(tuple(order))
        costs.append(tuple(row[e] for e in (reversed(order) if goods else order)))
    return tuple(costs), tuple(sigma)


def reference_lift(inst, ido_owner):
    chores = inst.kind == CHORES
    m = inst.m
    owner = [None] * m
    favorites = {}
    for slot in range(m) if chores else range(m - 1, -1, -1):
        agent = ido_owner[slot]
        if agent not in favorites:
            favorites[agent] = iter(
                reference_ranking(list(range(m)), inst.costs[agent], not chores)
            )
        pick = next(e for e in favorites[agent] if owner[e] is None)
        owner[pick] = agent
    return tuple(owner)


def reference_is_ido(inst):
    return all(row[e] <= row[e + 1] for row in inst.costs for e in range(len(row) - 1))


def reference_bid_and_take(inst, selection):
    """(dense shares, events, successors, last_item) of the replaced run."""
    n, m = inst.n, inst.m
    shares = [wprop_share(inst, i) for i in range(n)]
    goods = inst.kind == GOODS
    totals = [sum(row, ZERO).as_integer_ratio() for row in inst.costs]

    def key(agent, item):
        p, q = inst.costs[agent][item].as_integer_ratio()
        if selection == RAW_COST:
            return p, q
        total_p, total_q = totals[agent]
        return (p * total_q, q * total_p) if total_p else (0, 1)

    def choose(active, item):
        best = active[0]
        best_num, best_den = key(best, item)
        for a in active[1:]:
            num, den = key(a, item)
            lhs, rhs = num * best_den, best_num * den
            if (lhs > rhs) if goods else (lhs < rhs):
                best, best_num, best_den = a, num, den
        return best

    x = [[ZERO] * m for _ in range(n)]
    load = [ZERO] * n
    active = list(range(n))
    events, successors = [], []
    last_item = [None] * n
    pending = None

    def take(agent, item, fraction, inactivated):
        nonlocal pending
        x[agent][item] += fraction
        load[agent] += fraction * inst.costs[agent][item]
        events.append((item, agent, fraction, inactivated))
        if fraction > 0:
            last_item[agent] = item
            if pending is not None:
                successors.append((pending, agent, item))
                pending = None
        if inactivated and fraction > 0:
            pending = agent

    j = 0
    while j < m:
        pending = None
        z = Fraction(1)
        while True:
            if not active:
                raise StuckError("stuck")
            i = choose(active, j)
            cost = inst.costs[i][j]
            if load[i] + z * cost > shares[i]:
                fraction = (shares[i] - load[i]) / cost
                take(i, j, fraction, inactivated=True)
                z -= fraction
                active.remove(i)
                if goods and len(active) == 1:
                    only = active[0]
                    take(only, j, z, inactivated=False)
                    for rest in range(j + 1, m):
                        take(only, rest, Fraction(1), inactivated=False)
                    j = m
                    break
            else:
                take(i, j, z, inactivated=False)
                j += 1
                break
    return tuple(map(tuple, x)), events, successors, tuple(last_item)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@st.composite
def instances(draw, kinds=(CHORES, GOODS), max_n=6, max_m=8):
    """Tie-heavy instances: each row on its own grid of 1/2, 1/3, 1/4 or 1/6,
    so rows differ in denominator; all-zero rows; m < n; weights with
    denominators near 10^6."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    if draw(st.booleans()):
        raw = [draw(st.integers(10**6 - 50, 10**6)) for _ in range(n)]
    else:
        raw = [draw(st.integers(1, 9)) for _ in range(n)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    costs = []
    for _ in range(n):
        grid = draw(st.sampled_from([2, 3, 4, 6]))
        if draw(st.integers(0, 4)) == 0:
            costs.append((Fraction(0),) * m)
        else:
            costs.append(tuple(Fraction(draw(st.integers(0, grid)), grid) for _ in range(m)))
    return Instance(kind, weights, tuple(costs))


# goods lone-agent path: agent 0 fills up on item 1 and agent 1 takes the rest
LONE_AGENT = Instance(GOODS, ("1/2", "1/2"), (("1", "1", "1"), ("1", "1", "1")))
EDGE_CASES = (
    LONE_AGENT,
    Instance(CHORES, ("1/2", "1/2"), ((), ())),
    Instance(CHORES, ("1/3", "1/3", "1/3"), (("1/2",), ("1/2",), ("1/2",))),
    Instance(GOODS, ("1/4", "3/4"), (("0", "0"), ("0", "0"))),
    Instance(CHORES, ("1/3", "2/3"), (("0", "0", "0"), ("1/3", "1/2", "1/6"))),
    Instance(
        CHORES,
        (Fraction(999_983, 1_999_949), Fraction(999_966, 1_999_949)),
        (("1/2", "1/3", "1/4"), ("2/3", "1/6", "1/2")),
    ),
)


def with_edge_cases(test):
    for inst in EDGE_CASES:
        test = example(inst)(test)
    return test


def fresh(inst):
    """The same instance with no cache carried over."""
    return Instance(inst.kind, inst.weights, inst.costs)


def assert_run_matches_reference(inst, selection):
    try:
        expected = reference_bid_and_take(inst, selection)
    except StuckError:
        try:
            bid_and_take(inst, selection)
        except StuckError:
            return
        raise AssertionError("the reference run is stuck, the new run is not")
    alloc, trace = bid_and_take(inst, selection)
    shares, events, successors, last_item = expected
    assert alloc.shares == shares
    assert alloc.n == inst.n and alloc.m == inst.m
    assert alloc.columns == tuple(
        tuple((i, shares[i][e]) for i in range(inst.n) if shares[i][e] > 0)
        for e in range(inst.m)
    )
    for e in range(inst.m):
        assert alloc.sharers(e) == tuple(i for i in range(inst.n) if shares[i][e] > 0)
    assert [(ev.item, ev.agent, ev.fraction, ev.inactivated) for ev in trace.events] == events
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == successors
    assert trace.last_item == last_item
    assert alloc.is_complete()


# ---------------------------------------------------------------------------
# Equivalence with the reference copies
# ---------------------------------------------------------------------------

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
    assert [ido_inst.total_cost(i) for i in range(ido_inst.n)] == [
        again.total_cost(i) for i in range(again.n)
    ]
    assert [wprop_share(ido_inst, i) for i in range(ido_inst.n)] == [
        wprop_share(again, i) for i in range(again.n)
    ]
    assert ido_inst._units == again._units
    assert [ido_inst.total_cost(i) for i in range(ido_inst.n)] == [
        sum(row, ZERO) for row in inst.costs
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
@given(instances())
@settings(max_examples=400, deadline=None)
def test_normalized_run_matches_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    assert_run_matches_reference(ido_inst, NORMALIZED)


@with_edge_cases
@given(instances(kinds=(CHORES,)))
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
    try:
        reference_bid_and_take(stuck, RAW_COST)
    except StuckError:
        pass
    else:
        raise AssertionError("expected a stuck raw-cost run")
    assert_run_matches_reference(stuck, RAW_COST)


def test_row_integers_reuse_numerators():
    big = 10**30 + 7
    inst = Instance(CHORES, ("1",), ((Fraction(big - 1, big), Fraction(1, big), Fraction(0)),))
    (ints, d), = inst._rows
    assert d == big and ints == (big - 1, 1, 0)
    assert ints[0] is inst.costs[0][0].numerator
