"""Rounding's single subsidy accounting against the accountings it replaced.

Component costs come only from ``local_subsidy`` and the per-tree emit
comparison reads ``compute_subsidies`` of two whole allocations.  The
reference copies below are what they replaced: the expanded atom-path's
own placement decomposition (per-agent clamped core deltas plus the
cheaper side of each attached edge) and the per-tree true subsidy built
from each agent's whole-item load.  The properties require the same
scheme, assignment and local subsidy for every expanded atom-path (also
under fresh costs on the same shares), and the same ``emitted`` and
rounded owners for every tree, on tie-heavy grids of 1/2 and 1/3 for
both kinds.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import CHORES, GOODS, Instance, wprop_share
from subsidy_fairdiv.fbta import NORMALIZED, bid_and_take
from subsidy_fairdiv.graph import build_graph, trees
from subsidy_fairdiv.ido import reduce_to_ido
from subsidy_fairdiv.model import ONE, ZERO, exact_sum
from subsidy_fairdiv.rounding import (
    RoundingError,
    integralize,
    local_subsidy,
    round_expanded_atom_path,
    round_tree,
    run_pipeline,
    threshold_owner,
)
from subsidy_fairdiv.split import ExpandedAtomPath, split_tree


# ---------------------------------------------------------------------------
# Reference copies of the replaced accounting
# ---------------------------------------------------------------------------

def reference_expanded_atom_path(inst, alloc, eap):
    """(scheme, assignment, total) by the clamped placement decomposition."""
    core = eap.path.item
    agents = eap.path.agents
    chores = inst.kind == CHORES

    def clamp(d):
        signed = d if chores else -d
        return signed if signed > 0 else ZERO

    def place(owner):
        core_delta = {}
        for a in agents:
            held = alloc.shares[a][core]
            u = inst.costs[a][core]
            core_delta[a] = (ONE - held) * u if a == owner else -held * u
        attached_agents = set()
        total = ZERO
        assignment = {core: owner}
        for path_agent, edge in eap.attachments:
            other = edge.head if edge.tail == path_agent else edge.tail
            attached_agents.add(path_agent)
            item = edge.item
            side = []
            for choice in sorted((path_agent, other)):
                d_path = core_delta[path_agent]
                d_other = ZERO
                for who in (path_agent, other):
                    held = alloc.shares[who][item]
                    u = inst.costs[who][item]
                    change = (ONE - held) * u if who == choice else -held * u
                    if who == path_agent:
                        d_path += change
                    else:
                        d_other += change
                side.append((clamp(d_path) + clamp(d_other), choice))
            value, choice = min(side)
            total += value
            assignment[item] = choice
        for a in agents:
            if a not in attached_agents:
                total += clamp(core_delta[a])
        return total, owner, assignment

    total, owner, assignment = min(map(place, agents), key=lambda c: c[:2])
    return f"core->{owner}", assignment, total


def reference_whole_item_loads(inst, alloc):
    """Per agent, the cost (or value) of the items she holds whole."""
    whole = [[] for _ in range(inst.n)]
    for e in range(alloc.m):
        for agent in alloc.sharers(e):
            if alloc.shares[agent][e] == ONE:
                whole[agent].append(inst.costs[agent][e])
    return tuple(exact_sum(items) for items in whole)


def reference_tree_subsidy(inst, whole, tree, assignment):
    """True total subsidy of the tree's agents under the tree's assignment."""
    load = {agent: whole[agent] for agent in tree.nodes}
    for item, owner in assignment.items():
        load[owner] += inst.costs[owner][item]
    total = ZERO
    for agent, bundle in load.items():
        share = wprop_share(inst, agent)
        gap = bundle - share if inst.kind == CHORES else share - bundle
        if gap > 0:
            total += gap
    return total


def reference_emit(inst, alloc, forest):
    """(emitted per tree, merged assignment) by per-tree true subsidies."""
    whole = reference_whole_item_loads(inst, alloc)
    emitted, assignment = [], {}
    for tree in forest:
        split = {}
        for comp in round_tree(inst, alloc, tree).components:
            split.update(comp.assignment)
        threshold = {
            item: threshold_owner(alloc, item) for item in split
        }
        if reference_tree_subsidy(inst, whole, tree, threshold) < reference_tree_subsidy(
            inst, whole, tree, split
        ):
            emitted.append("threshold")
            assignment.update(threshold)
        else:
            emitted.append("split")
            assignment.update(split)
    return emitted, assignment


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@st.composite
def tie_heavy_instances(draw, max_n=12, max_m=24):
    """Instances on a grid of 1/2 or 1/3, where many comparisons tie."""
    kind = draw(st.sampled_from([CHORES, GOODS]))
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_m))
    grid = draw(st.sampled_from([2, 3]))
    raw = [draw(st.integers(1, 9)) for _ in range(n)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    costs = tuple(
        tuple(Fraction(draw(st.integers(0, grid)), grid) for _ in range(m))
        for _ in range(n)
    )
    return Instance(kind, weights, costs)


def fractional_forest(inst):
    ido_inst, _ = reduce_to_ido(inst)
    alloc, trace = bid_and_take(ido_inst, NORMALIZED)
    return ido_inst, alloc, trees(build_graph(trace))


# ---------------------------------------------------------------------------
# Equivalence with the reference copies
# ---------------------------------------------------------------------------

@given(tie_heavy_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_expanded_atom_path_matches_placement_decomposition(inst, data):
    ido_inst, alloc, forest = fractional_forest(inst)
    eaps = [
        c for tree in forest for c in split_tree(tree) if isinstance(c, ExpandedAtomPath)
    ]
    # the same shares under fresh costs of 0, 1/2 or 1, which often tie an
    # attached edge's endpoints; the rounding needs only the sharing
    cells = inst.n * inst.m
    fresh = iter(data.draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells)))
    recosted = Instance(
        ido_inst.kind,
        ido_inst.weights,
        tuple(tuple(Fraction(next(fresh), 2) for _ in range(inst.m)) for _ in range(inst.n)),
    )
    for costs in (ido_inst, recosted):
        for eap in eaps:
            scheme, assignment, total = reference_expanded_atom_path(costs, alloc, eap)
            try:
                comp = round_expanded_atom_path(costs, alloc, eap)
            except RoundingError:  # costs not from bid-and-take may break the bound
                assert total > Fraction(eap.k + eap.h, 3)
                continue
            assert comp.scheme == scheme
            assert dict(comp.assignment) == assignment
            assert comp.local_subsidy == total == local_subsidy(costs, alloc, assignment)


@given(tie_heavy_instances())
@settings(max_examples=300, deadline=None)
def test_emit_comparison_matches_per_tree_accounting(inst):
    ido_inst, alloc, forest = fractional_forest(inst)
    emitted, assignment = reference_emit(ido_inst, alloc, forest)
    result = run_pipeline(inst)
    assert [t.emitted for t in result.certificate.trees] == emitted
    assert result.ido_allocation == integralize(alloc, assignment)
