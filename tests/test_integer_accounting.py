"""Subsidies, component prices and the brute force against plain-Fraction references.

Each agent has one integer unit, ``q_i * d_i`` for weight ``p_i / q_i`` and
row denominator ``d_i``: the gaps of ``compute_subsidies``, the component
prices of ``rounding`` and the brute-force oracle's loads and shares are
integers in it.  The references in ``tests/reference.py`` add ``Fraction``
loads and clamp ``Fraction`` gaps: per-agent subsidies, the local subsidy
of any rounding, the cheapest option of each component kind (the expanded
atom-path ranking each attached edge's endpoints with a fresh local
subsidy for every placement of the core item) and the first least total
of every combination.  The properties require equal values, assignments,
schemes and tie-breaks on the reference instance strategy, also under
fresh costs of 0, 1/2 or 1 on the same shares (where ties are common),
with shapes up to n = 12 and m = 24 for the component roundings, which
are also checked under fresh costs up to 2, past their bounds.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import (
    EnumerationCapExceeded,
    IntegralAllocation,
    brute_force_rounding,
    compute_subsidies,
)
from subsidy_fairdiv.rounding import (
    local_subsidy,
    round_expanded_atom_path,
    round_pair,
    round_single_edge,
)
from subsidy_fairdiv.split import split_tree
from reference import (
    REFERENCE_COMPONENTS,
    fractional_run,
    instances,
    recosted,
    reference_brute_force,
    reference_compute_subsidies,
    reference_local_subsidy,
    with_edge_cases,
)

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


def fresh_costs(inst, data, top=2):
    """The instance recosted with halves from 0 to ``top / 2``."""
    cells = inst.n * inst.m
    return recosted(
        inst, iter(data.draw(st.lists(st.integers(0, top), min_size=cells, max_size=cells)))
    )


@given(instances(max_n=10, max_m=14), st.data())
@settings(max_examples=300, deadline=None)
def test_compute_subsidies_matches_reference(inst, data):
    owner = tuple(data.draw(st.integers(0, inst.n - 1)) for _ in range(inst.m))
    amounts = compute_subsidies(inst, IntegralAllocation(owner)).amounts
    assert amounts == reference_compute_subsidies(inst, owner)
    assert all(type(a) is Fraction for a in amounts)


@given(instances(max_n=10, max_m=14), st.data())
@settings(max_examples=300, deadline=None)
def test_local_subsidy_matches_reference(inst, data):
    ido_inst, alloc, _ = fractional_run(inst)
    for costs in (ido_inst, fresh_costs(ido_inst, data)):
        # any subset of the items, fractional or whole, each to one sharer
        items = [e for e in range(inst.m) if data.draw(st.booleans())]
        assignment = {e: data.draw(st.sampled_from(alloc.sharers(e))) for e in items}
        assert local_subsidy(costs, alloc, assignment) == reference_local_subsidy(
            costs, alloc, assignment
        )


@given(instances(max_n=12, max_m=24), st.data())
@settings(max_examples=500, deadline=None)
def test_component_prices_match_reference(inst, data):
    ido_inst, alloc, forest = fractional_run(inst)
    # the same shares under fresh costs of 0, 1/2 or 1, which often tie an
    # attached edge's endpoints or two options of a component, and of up to
    # 2, which break about one component's bound in ten: the rounding still
    # returns its exact price and records the bound
    for costs in (ido_inst, fresh_costs(ido_inst, data), fresh_costs(ido_inst, data, 4)):
        for comp in (c for tree in forest for c in split_tree(tree)):
            scheme, assignment, local = REFERENCE_COMPONENTS[comp.kind](costs, alloc, comp)
            rounded = ROUNDERS[comp.kind](costs, alloc, comp)
            assert (rounded.scheme, dict(rounded.assignment), rounded.local_subsidy) == (
                scheme,
                assignment,
                local,
            )
            assert rounded.bound == BOUNDS[comp.kind](comp)
            # on the instance's own costs no component passes its bound
            assert costs is not ido_inst or local <= rounded.bound


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
