"""Loads and shares as integers against the Fraction code they replaced.

Each agent has one integer unit, ``q_i * d_i`` for weight ``p_i / q_i`` and
row denominator ``d_i``: bid-and-take's capacities, the gaps of
``compute_subsidies``, the component prices of ``rounding`` and the
brute-force oracle's loads and shares are integers in it.  The reference
copies below are the code this replaced: ``local_subsidy`` with a
``Fraction`` delta per agent, the expanded atom-path that ranks each
attached edge's endpoints with a fresh ``local_subsidy`` for every
placement of the core item, bid-and-take with ``Fraction`` capacities,
``compute_subsidies`` with ``Fraction`` gaps, and the brute force that adds
a ``Fraction`` load vector for every combination.  The properties require
equal values, assignments, schemes, runs and tie-breaks on per-row grids of
1/2 and 1/3 (where ties are common), all-zero rows, fewer items than
agents, weights near 10^6 in denominator, both kinds, the goods lone-agent
path and raw-cost ``StuckError``s.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    EnumerationCapExceeded,
    Instance,
    IntegralAllocation,
    brute_force_rounding,
    compute_subsidies,
    wprop_share,
)
from subsidy_fairdiv.fbta import NORMALIZED, RAW_COST, StuckError, bid_and_take
from subsidy_fairdiv.graph import build_graph, trees
from subsidy_fairdiv.ido import reduce_to_ido
from subsidy_fairdiv.model import ONE, ZERO
from subsidy_fairdiv.rounding import (
    RoundingError,
    local_subsidy,
    round_expanded_atom_path,
    round_pair,
    round_single_edge,
    threshold_owner,
)
from subsidy_fairdiv.split import split_tree


# ---------------------------------------------------------------------------
# Reference copies of the replaced code
# ---------------------------------------------------------------------------

def reference_local_subsidy(inst, alloc, assignment):
    delta = {}
    for item, owner in assignment.items():
        assert owner in alloc.sharers(item)
        for agent, held in alloc.columns[item]:
            u = inst.costs[agent][item]
            change = (ONE - held) * u if agent == owner else -held * u
            delta[agent] = delta.get(agent, ZERO) + change
    if inst.kind == CHORES:
        return sum((d for d in delta.values() if d > 0), ZERO)
    return sum((-d for d in delta.values() if d < 0), ZERO)


def reference_cheapest(inst, alloc, options):
    """(scheme, assignment, local) of the least local subsidy, ties to the first."""
    local, scheme, assignment = min(
        ((reference_local_subsidy(inst, alloc, a), s, a) for s, a in options),
        key=lambda scored: scored[0],
    )
    return scheme, assignment, local


def reference_expanded_atom_path(inst, alloc, eap):
    core = eap.path.item
    attached = []
    for path_agent, edge in eap.attachments:
        other = edge.head if edge.tail == path_agent else edge.tail
        attached.append((edge.item, sorted((path_agent, other))))

    def place(owner):
        assignment = {core: owner}
        for item, ends in attached:
            assignment[item] = min(
                ends,
                key=lambda c: reference_local_subsidy(inst, alloc, {core: owner, item: c}),
            )
        return f"core->{owner}", assignment

    return reference_cheapest(inst, alloc, [place(o) for o in sorted(eap.path.agents)])


def reference_pair(inst, alloc, comp):
    e1, e2 = comp.first.item, comp.second.item
    out1, out2 = comp.outer
    mid = comp.middle
    return reference_cheapest(inst, alloc, [
        ("LL", {e1: out1, e2: mid}),
        ("RR", {e1: mid, e2: out2}),
        ("LR", {e1: out1, e2: out2}),
        ("RL", {e1: mid, e2: mid}),
    ])


def reference_single_edge(inst, alloc, comp):
    item = comp.edge.item
    owner = threshold_owner(alloc, item)
    return reference_cheapest(inst, alloc, [(f"threshold->{owner}", {item: owner})])


def reference_bid_and_take(inst, selection):
    """(columns, events, successors, last_item) with Fraction capacities."""
    n, m = inst.n, inst.m
    goods = inst.kind == GOODS
    sign = -1 if goods else 1
    if selection == RAW_COST:
        keys = [(ints, sign * d) for ints, d in inst._rows]
    else:
        keys = [(ints, sign * (sum(ints) or 1)) for ints, _ in inst._rows]
    costs = inst.costs
    capacity = [wprop_share(inst, i) for i in range(n)]
    active = list(range(n))
    columns = [[] for _ in range(m)]
    events, successors = [], []
    last_item = [None] * n
    pending = None

    def take(agent, item, fraction, inactivated):
        nonlocal pending
        events.append((item, agent, fraction, inactivated))
        if fraction > 0:
            columns[item].append((agent, fraction))
            last_item[agent] = item
            if pending is not None:
                successors.append((pending, agent, item))
                pending = None
            if inactivated:
                pending = agent

    j = 0
    while j < m:
        pending = None
        z = ONE
        while True:
            if not active:
                raise StuckError("stuck")
            i = active[0]
            row, best_den = keys[i]
            best_num = row[j]
            for a in active:
                row, den = keys[a]
                if row[j] * best_den < best_num * den:
                    i, best_num, best_den = a, row[j], den
            cost = costs[i][j]
            need = z * cost
            if need > capacity[i]:
                fraction = capacity[i] / cost
                take(i, j, fraction, inactivated=True)
                z -= fraction
                active.remove(i)
                if goods and len(active) == 1:
                    only = active[0]
                    take(only, j, z, inactivated=False)
                    for rest in range(j + 1, m):
                        take(only, rest, ONE, inactivated=False)
                    j = m
                    break
            else:
                capacity[i] -= need
                take(i, j, z, inactivated=False)
                j += 1
                break
    return tuple(tuple(sorted(c)) for c in columns), events, successors, tuple(last_item)


def reference_compute_subsidies(inst, owner):
    amounts = []
    for i in range(inst.n):
        load = sum((inst.costs[i][e] for e, o in enumerate(owner) if o == i), ZERO)
        share = wprop_share(inst, i)
        gap = load - share if inst.kind == CHORES else share - load
        amounts.append(max(gap, ZERO))
    return tuple(amounts)


def reference_brute_force(inst, alloc):
    """(owner, subsidies) of the least total subsidy, ties to the smallest vector."""
    fracs = [(e, alloc.sharers(e)) for e in range(alloc.m) if len(alloc.columns[e]) >= 2]
    shares = [wprop_share(inst, i) for i in range(inst.n)]
    base_load = [ZERO] * inst.n
    base_owner = [None] * inst.m
    for e in range(inst.m):
        sharers = alloc.sharers(e)
        if len(sharers) == 1:
            base_owner[e] = sharers[0]
            base_load[sharers[0]] += inst.costs[sharers[0]][e]
    chores = inst.kind == CHORES
    best_total = best_combo = None
    for combo in itertools.product(*(sharers for _, sharers in fracs)):
        load = list(base_load)
        for (e, _), owner in zip(fracs, combo):
            load[owner] += inst.costs[owner][e]
        total = ZERO
        for i in range(inst.n):
            gap = load[i] - shares[i] if chores else shares[i] - load[i]
            if gap > 0:
                total += gap
        if best_total is None or total < best_total:
            best_total, best_combo = total, combo
    owner = list(base_owner)
    for (e, _), o in zip(fracs, best_combo):
        owner[e] = o
    return tuple(owner), reference_compute_subsidies(inst, owner)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@st.composite
def instances(draw, kinds=(CHORES, GOODS), max_n=10, max_m=14):
    """Each row on its own grid of 1/2 or 1/3, some all zero; m may be below
    n; half the time weights with denominators near 10^6."""
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
        grid = draw(st.sampled_from([2, 3]))
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
        GOODS,
        (Fraction(999_983, 1_999_949), Fraction(999_966, 1_999_949)),
        (("1/2", "1/3", "1/3"), ("2/3", "1/3", "1/2")),
    ),
)


def with_edge_cases(test):
    for inst in EDGE_CASES:
        test = example(inst)(test)
    return test


# for tests that also draw data, which explicit examples cannot supply
some_instances = st.one_of(st.sampled_from(EDGE_CASES), instances())


def fractional_run(inst):
    ido_inst, _ = reduce_to_ido(inst)
    alloc, trace = bid_and_take(ido_inst, NORMALIZED)
    return ido_inst, alloc, trees(build_graph(trace))


def recosted(inst, values):
    """The instance's kind and weights with costs of 0, 1/2 or 1 drawn from ``values``."""
    return Instance(
        inst.kind,
        inst.weights,
        tuple(tuple(Fraction(next(values), 2) for _ in range(inst.m)) for _ in range(inst.n)),
    )


REFERENCES = {
    "single_edge": reference_single_edge,
    "pair": reference_pair,
    "expanded_atom_path": reference_expanded_atom_path,
}
ROUNDERS = {
    "single_edge": round_single_edge,
    "pair": round_pair,
    "expanded_atom_path": round_expanded_atom_path,
}
BOUNDS = {
    "single_edge": lambda comp: Fraction(1, 2),
    "pair": lambda comp: Fraction(2, 3),
    "expanded_atom_path": lambda comp: Fraction(comp.k + comp.h, 3),
}


# ---------------------------------------------------------------------------
# Equivalence with the reference copies
# ---------------------------------------------------------------------------

@with_edge_cases
@given(instances())
@settings(max_examples=300, deadline=None)
def test_normalized_capacities_match_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    columns, events, successors, last_item = reference_bid_and_take(ido_inst, NORMALIZED)
    alloc, trace = bid_and_take(ido_inst, NORMALIZED)
    assert alloc.columns == columns
    assert [(ev.item, ev.agent, ev.fraction, ev.inactivated) for ev in trace.events] == events
    assert all(type(ev.fraction) is Fraction for ev in trace.events)
    assert [(r.agent, r.successor, r.item) for r in trace.successors] == successors
    assert trace.last_item == last_item


@with_edge_cases
@given(instances(kinds=(CHORES,)))
@settings(max_examples=200, deadline=None)
def test_raw_cost_capacities_match_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    try:
        expected = reference_bid_and_take(ido_inst, RAW_COST)
    except StuckError:
        with pytest.raises(StuckError):
            bid_and_take(ido_inst, RAW_COST)
        return
    alloc, trace = bid_and_take(ido_inst, RAW_COST)
    assert alloc.columns == expected[0]
    assert [(ev.item, ev.agent, ev.fraction, ev.inactivated) for ev in trace.events] == expected[1]


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


@given(some_instances, st.data())
@settings(max_examples=300, deadline=None)
def test_compute_subsidies_matches_reference(inst, data):
    owner = tuple(data.draw(st.integers(0, inst.n - 1)) for _ in range(inst.m))
    amounts = compute_subsidies(inst, IntegralAllocation(owner)).amounts
    assert amounts == reference_compute_subsidies(inst, owner)
    assert all(type(a) is Fraction for a in amounts)


@given(some_instances, st.data())
@settings(max_examples=300, deadline=None)
def test_local_subsidy_matches_reference(inst, data):
    ido_inst, alloc, _ = fractional_run(inst)
    cells = inst.n * inst.m
    fresh = recosted(
        ido_inst, iter(data.draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells)))
    )
    for costs in (ido_inst, fresh):
        # any subset of the items, fractional or whole, each to one sharer
        items = [e for e in range(inst.m) if data.draw(st.booleans())]
        assignment = {e: data.draw(st.sampled_from(alloc.sharers(e))) for e in items}
        assert local_subsidy(costs, alloc, assignment) == reference_local_subsidy(
            costs, alloc, assignment
        )


@given(some_instances, st.data())
@settings(max_examples=300, deadline=None)
def test_component_prices_match_reference(inst, data):
    ido_inst, alloc, forest = fractional_run(inst)
    # the same shares under fresh costs of 0, 1/2 or 1, which often tie an
    # attached edge's endpoints or two options of a component
    cells = inst.n * inst.m
    fresh = recosted(
        ido_inst, iter(data.draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells)))
    )
    for costs in (ido_inst, fresh):
        for comp in (c for tree in forest for c in split_tree(tree)):
            scheme, assignment, local = REFERENCES[comp.kind](costs, alloc, comp)
            try:
                rounded = ROUNDERS[comp.kind](costs, alloc, comp)
            except RoundingError:  # fresh costs may break the component's bound
                assert costs is fresh and local > BOUNDS[comp.kind](comp)
                continue
            assert (rounded.scheme, dict(rounded.assignment), rounded.local_subsidy) == (
                scheme,
                assignment,
                local,
            )


@with_edge_cases
@given(instances(max_n=7, max_m=10))
@settings(max_examples=300, deadline=None)
def test_brute_force_matches_reference(inst):
    ido_inst, alloc, _ = fractional_run(inst)
    try:
        allocation, subsidies = brute_force_rounding(ido_inst, alloc, cap=4096)
    except EnumerationCapExceeded:
        return
    owner, amounts = reference_brute_force(ido_inst, alloc)
    assert allocation.owner == owner
    assert subsidies.amounts == amounts
