"""Component roundings, certificates, and the end-to-end pipeline."""
import inspect
import itertools
import sys
from fractions import Fraction

import pytest

from subsidy_fairdiv import (
    BASELINE,
    CHORES,
    GOODS,
    Edge,
    FractionalAllocation,
    Instance,
    ModelError,
    brute_force_rounding,
    compute_subsidies,
    gen_random_instance,
    run_pipeline,
)
from subsidy_fairdiv.fbta import fbta, fractional_items
from subsidy_fairdiv.graph import (
    AtomPath,
    build_graph,
    find_atom_paths,
    make_tree,
    trees,
)
from subsidy_fairdiv.rounding import (
    RoundingError,
    integralize,
    local_subsidy,
    round_expanded_atom_path,
    round_pair,
    round_single_edge,
    round_tree,
    threshold_owner,
)
from subsidy_fairdiv.split import (
    ExpandedAtomPath,
    Pair,
    SingleEdge,
    atom_path_split,
    split_tree,
)


def enumerate_minimum(inst, alloc, choices):
    """Independent oracle: exact minimum over all listed assignments."""
    items = list(choices)
    best = None
    for combo in itertools.product(*(choices[e] for e in items)):
        value = local_subsidy(inst, alloc, dict(zip(items, combo)))
        if best is None or value < best:
            best = value
    return best


def uniform_pair(x1, x2, costs=None):
    """Three agents, two items; middle agent 1 holds x1 of item 0 and x2
    of item 1."""
    costs = costs or (("1", "1"), ("1", "1"), ("1", "1"))
    shares = (
        (1 - Fraction(x1), 0),
        (Fraction(x1), Fraction(x2)),
        (0, 1 - Fraction(x2)),
    )
    inst = Instance(CHORES, ("1/3", "1/3", "1/3"), costs)
    alloc = FractionalAllocation(shares)
    comp = Pair(Edge(0, 1, 0), Edge(1, 2, 1), middle=1)
    return inst, alloc, comp


# ---------------------------------------------------------------------------
# local_subsidy
# ---------------------------------------------------------------------------

def test_local_subsidy_single_edge_example():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("3/5",), ("2/5",)))
    assert local_subsidy(inst, alloc, {0: 0}) == Fraction(2, 5)
    assert local_subsidy(inst, alloc, {0: 1}) == Fraction(3, 5)


def test_local_subsidy_majority_holder_of_whole_item_is_free():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1",), ("0",)))
    assert local_subsidy(inst, alloc, {0: 0}) == 0


def test_local_subsidy_pair_with_offset():
    # Symmetric halves, unit costs: giving item 0 to agent 0 and item 1
    # to the middle agent costs 1/2 + 0: the middle agent's relief on
    # item 0 pays for her gain on item 1.
    inst, alloc, comp = uniform_pair("1/2", "1/2")
    assert local_subsidy(inst, alloc, {0: 0, 1: 1}) == Fraction(1, 2)


def test_local_subsidy_rejects_non_sharer():
    inst, alloc, comp = uniform_pair("1/2", "1/2")
    with pytest.raises(RoundingError):
        local_subsidy(inst, alloc, {0: 2})


def test_local_subsidy_goods_counts_shortfalls():
    inst = Instance(GOODS, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("3/5",), ("2/5",)))
    # the loser's shortfall is her lost share
    assert local_subsidy(inst, alloc, {0: 0}) == Fraction(2, 5)
    assert local_subsidy(inst, alloc, {0: 1}) == Fraction(3, 5)


# ---------------------------------------------------------------------------
# single edge
# ---------------------------------------------------------------------------

def test_round_single_edge_majority():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("3/4",), ("1/4",)))
    rounding = round_single_edge(inst, alloc, SingleEdge(Edge(0, 1, 0)))
    assert rounding.assignment == ((0, 0),)
    assert rounding.local_subsidy == Fraction(1, 4)
    assert rounding.bound == Fraction(1, 2)


def test_round_single_edge_tie_goes_to_smaller_agent():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1/2",), ("1/2",)))
    rounding = round_single_edge(inst, alloc, SingleEdge(Edge(0, 1, 0)))
    assert rounding.assignment == ((0, 0),)
    assert rounding.local_subsidy == Fraction(1, 2)


def test_round_single_edge_rejects_whole_item():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1",), ("0",)))
    with pytest.raises(RoundingError):
        round_single_edge(inst, alloc, SingleEdge(Edge(0, 1, 0)))


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

def test_round_pair_outer_agents_hold_everything():
    inst, alloc, comp = uniform_pair(0, 0)
    # degenerate shares would make the items whole; perturb minimally
    inst, alloc, comp = uniform_pair("1/100", "1/100")
    rounding = round_pair(inst, alloc, comp)
    assert rounding.scheme == "LR"
    assert rounding.local_subsidy == Fraction(2, 100)


def test_round_pair_middle_holds_everything():
    inst, alloc, comp = uniform_pair("99/100", "99/100")
    rounding = round_pair(inst, alloc, comp)
    assert rounding.scheme == "RL"
    assert rounding.local_subsidy == Fraction(2, 100)


def test_round_pair_ties_go_to_the_first_listed_scheme():
    # item 0 is free, so RR and LR tie at 0; the schemes are listed
    # LL, RR, LR, RL
    inst, alloc, comp = uniform_pair(
        "1/2", "1/2", costs=(("0", "0"), ("0", "1"), ("0", "0"))
    )
    rounding = round_pair(inst, alloc, comp)
    assert rounding.scheme == "RR"
    assert rounding.local_subsidy == 0


def test_round_pair_symmetric_thirds():
    inst, alloc, comp = uniform_pair("1/3", "1/3")
    rounding = round_pair(inst, alloc, comp)
    assert rounding.local_subsidy == Fraction(2, 3)
    assert rounding.local_subsidy <= rounding.bound


def test_round_pair_equals_four_way_enumeration_on_random_components():
    found = 0
    for seed in range(120):
        inst = gen_random_instance(
            n=3 + seed % 6, m=3 + seed % 10, seed=seed,
            kind=(CHORES, GOODS)[seed % 2], force_ido=True,
        )
        alloc, trace = fbta(inst)
        graph = build_graph(trace)
        for tree in trees(graph):
            if find_atom_paths(tree):
                continue
            from subsidy_fairdiv.split import simple_split

            for comp in simple_split(tree):
                if not isinstance(comp, Pair):
                    continue
                found += 1
                e1, e2 = comp.first.item, comp.second.item
                out1, out2 = comp.outer
                choices = {e1: [out1, comp.middle], e2: [comp.middle, out2]}
                best = enumerate_minimum(inst, alloc, choices)
                assert round_pair(inst, alloc, comp).local_subsidy == best
    assert found >= 20


def test_round_pair_dominates_closed_form_bounds():
    # The exact minimum never exceeds the minimum of the four
    # closed-form upper bounds for LL, RR, LR, RL (written with the
    # middle agent's larger item cost a1 and ratio alpha = a2/a1).
    for seed in range(200):
        import random

        rng = random.Random(seed)
        x1 = Fraction(rng.randint(0, 12), 12)
        x2 = Fraction(rng.randint(0, 12), 12)
        if x1 in (0, 1) or x2 in (0, 1):
            continue
        a1 = Fraction(rng.randint(1, 10), 10)
        a2 = Fraction(rng.randint(1, 10), 10)
        c_out1 = Fraction(rng.randint(0, 10), 10)
        c_out2 = Fraction(rng.randint(0, 10), 10)
        costs = ((str(c_out1), "0"), (str(a1), str(a2)), ("0", str(c_out2)))
        inst, alloc, comp = uniform_pair(x1, x2, costs)
        if a1 < a2:
            # closed forms assume the first item is the costlier one for
            # the middle agent; swap the roles symmetrically
            x1, x2, a1, a2 = x2, x1, a2, a1
        alpha = a2 / a1
        pos = lambda v: max(v, Fraction(0))
        bounds = [
            x1 + pos((1 - x2) * alpha - x1),
            x2 + pos((1 - x1) - x2 * alpha),
            x1 + x2,
            (1 - x1) + (1 - x2) * alpha,
        ]
        exact = round_pair(inst, alloc, comp).local_subsidy
        assert exact <= min(bounds)
        assert exact <= Fraction(2, 3)


# ---------------------------------------------------------------------------
# expanded atom-paths
# ---------------------------------------------------------------------------

def eap_choices(eap):
    choices = {eap.path.item: list(eap.path.agents)}
    for agent, edge in eap.attachments:
        other = edge.head if edge.tail == agent else edge.tail
        choices[edge.item] = [agent, other]
    return choices


def test_round_eap_worked_example(reference_instance, reference_run, reference_tree):
    alloc, _, _ = reference_run
    eap, _ = atom_path_split(reference_tree)
    rounding = round_expanded_atom_path(reference_instance, alloc, eap)
    assert rounding.bound == Fraction(3, 3)
    best = enumerate_minimum(reference_instance, alloc, eap_choices(eap))
    assert rounding.local_subsidy == best
    assert rounding.local_subsidy <= 1


def test_round_eap_uniform_core_threshold():
    # Bare atom-path with uniform shares and unit costs: every placement
    # costs k/(k+1), within k/3 for k >= 2.
    for k in (2, 3, 4):
        n = k + 1
        alloc = FractionalAllocation(tuple((Fraction(1, n),) for _ in range(n)))
        inst = Instance(
            CHORES, tuple(Fraction(1, n) for _ in range(n)), tuple(("1",) for _ in range(n))
        )
        path = AtomPath(0, tuple(range(n)), tuple(Edge(i, i + 1, 0) for i in range(k)))
        eap = ExpandedAtomPath(path, ())
        rounding = round_expanded_atom_path(inst, alloc, eap)
        assert rounding.local_subsidy == Fraction(k, k + 1)
        assert rounding.local_subsidy <= Fraction(k, 3)


def test_round_eap_validates_shape():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1/2",), ("1/2",)))
    path = AtomPath(0, (0, 1), (Edge(0, 1, 0),))
    with pytest.raises(RoundingError):
        round_expanded_atom_path(inst, alloc, ExpandedAtomPath(path, ()))


def harvest_eaps(kinds, seeds, min_found):
    found = []
    for seed in seeds:
        inst = gen_random_instance(
            n=4 + seed % 6,
            m=4 + seed % 10,
            seed=seed,
            kind=kinds[seed % len(kinds)],
            dist=("uniform", "correlated")[seed % 2],
            force_ido=True,
        )
        alloc, trace = fbta(inst)
        graph = build_graph(trace)
        for tree in trees(graph):
            found.extend(
                (inst, alloc, c) for c in split_tree(tree) if isinstance(c, ExpandedAtomPath)
            )
    assert len(found) >= min_found
    return found


def test_round_eap_equals_enumeration_on_random_components():
    for inst, alloc, eap in harvest_eaps((CHORES, GOODS), range(400), 25):
        rounding = round_expanded_atom_path(inst, alloc, eap)
        best = enumerate_minimum(inst, alloc, eap_choices(eap))
        assert rounding.local_subsidy == best
        assert rounding.local_subsidy <= Fraction(eap.k + eap.h, 3)


def _synthetic_long_eap(kind, head_prefers_attachment):
    # k = 5 core edges over path agents 0..5, one attached edge per path
    # agent (h = 6, the maximum).  Core shares grow along the path; every
    # non-head agent ranks the core item at least as high as her
    # attachment, matching what traces guarantee.
    k = 5
    n_path = k + 1
    n = n_path + n_path
    m = 1 + n_path
    shares = [[Fraction(0)] * m for _ in range(n)]
    costs = [[Fraction(0)] * m for _ in range(n)]
    for p in range(n_path):
        shares[p][0] = Fraction(p + 1, 21)
        costs[p][0] = Fraction(9, 10)
        item = 1 + p
        attached = n_path + p
        shares[p][item] = Fraction(p + 1, 7)
        shares[attached][item] = 1 - Fraction(p + 1, 7)
        costs[p][item] = Fraction(8, 10)
        costs[attached][item] = Fraction(1)
    if head_prefers_attachment:
        costs[k][0] = Fraction(5, 10)
    inst = Instance(kind, tuple(Fraction(1, n) for _ in range(n)), tuple(map(tuple, costs)))
    alloc = FractionalAllocation(tuple(map(tuple, shares)))
    path = AtomPath(0, tuple(range(n_path)), tuple(Edge(i, i + 1, 0) for i in range(k)))
    attachments = tuple(
        (p, Edge(n_path + p, p, 1 + p)) for p in range(n_path)
    )
    return inst, alloc, ExpandedAtomPath(path, attachments)


@pytest.mark.parametrize("kind", [CHORES, GOODS])
@pytest.mark.parametrize("head_prefers_attachment", [False, True])
def test_round_eap_maximal_attachments(kind, head_prefers_attachment):
    inst, alloc, eap = _synthetic_long_eap(kind, head_prefers_attachment)
    assert eap.k == 5 and eap.h == 6
    rounding = round_expanded_atom_path(inst, alloc, eap)
    assert rounding.local_subsidy <= Fraction(11, 3)
    best = enumerate_minimum(inst, alloc, eap_choices(eap))
    assert rounding.local_subsidy == best


def test_round_eap_threshold_regime_closed_form():
    # When h <= k(2 - 6/(k+1)), the all-threshold scheme's closed-form
    # bound k/(k+1) + h/2 must dominate the exact minimum.
    hits = 0
    for inst, alloc, eap in harvest_eaps((CHORES,), range(400), 25):
        k, h = eap.k, eap.h
        if Fraction(h) <= k * (2 - Fraction(6, k + 1)):
            hits += 1
            exact = round_expanded_atom_path(inst, alloc, eap).local_subsidy
            assert exact <= Fraction(k, k + 1) + Fraction(h, 2)
    assert hits >= 1


# ---------------------------------------------------------------------------
# whole trees and the baseline
# ---------------------------------------------------------------------------

def test_round_tree_worked_example(reference_instance, reference_run, reference_tree):
    alloc, _, _ = reference_run
    rounding = round_tree(reference_instance, alloc, reference_tree)
    assert rounding.bound == Fraction(5, 3)
    assert rounding.has_atom_path
    assert [c.kind for c in rounding.components] == ["expanded_atom_path", "pair"]
    assert sum(c.bound for c in rounding.components) == Fraction(5, 3)
    assert sum(c.local_subsidy for c in rounding.components) <= rounding.bound


def test_round_tree_sizes_and_bounds():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1/2",), ("1/2",)))
    tree = make_tree((Edge(0, 1, 0),))
    rounding = round_tree(inst, alloc, tree)
    assert rounding.bound == Fraction(1, 2)
    empty = round_tree(inst, alloc, make_tree((), nodes=(0,)))
    assert empty.components == ()
    assert empty.bound == 0


def test_round_tree_deeply_nested_atom_paths():
    # A chain of 200 two-edge atom-paths, item i over agents 2i, 2i+1,
    # 2i+2, so the smallest item sits deepest and each split leaves one
    # subtree holding every remaining atom-path.  The split must not
    # need a Python frame per nesting level.
    paths = 200
    n = 2 * paths + 1
    edges = tuple(
        Edge(2 * i + j, 2 * i + j + 1, i) for i in range(paths) for j in (0, 1)
    )
    tree = make_tree(edges)
    third = Fraction(1, 3)
    alloc = FractionalAllocation(
        tuple(
            tuple(third if 2 * e <= a <= 2 * e + 2 else 0 for e in range(paths))
            for a in range(n)
        )
    )
    inst = Instance(CHORES, (Fraction(1, n),) * n, ((0,) * paths,) * n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        rounding = round_tree(inst, alloc, tree)
    finally:
        sys.setrecursionlimit(limit)
    assert [c.kind for c in rounding.components] == ["expanded_atom_path"] * paths
    assert [c.items for c in rounding.components] == [(i,) for i in range(paths)]
    assert rounding.bound == Fraction(2 * paths, 3)


def threshold_rounding(inst, alloc):
    """Each fractional item to its threshold owner, with the minimal subsidies."""
    assignment = {e: threshold_owner(alloc, e) for e, _ in fractional_items(alloc)}
    allocation = integralize(alloc, assignment)
    return allocation, compute_subsidies(inst, allocation)


def test_round_baseline_worked_example(reference_instance, reference_run):
    alloc, _, _ = reference_run
    allocation, subsidies = threshold_rounding(reference_instance, alloc)
    # thresholds: item0 -> agent0 (4/7), item1 -> agent1 (1/2),
    # item2 -> agent3 (3/4), item4 tie 1/2 -> agent4; whole items stay
    assert allocation.owner == (0, 1, 3, 4, 4, 5)
    assert subsidies.total <= Fraction(5, 2)


def test_round_baseline_integral_input_is_noop():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    alloc, _ = fbta(inst)
    allocation, subsidies = threshold_rounding(inst, alloc)
    assert subsidies.total == 0


def test_round_baseline_tight_two_agent_bound():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1/2",), ("1/2",)))
    allocation, subsidies = threshold_rounding(inst, alloc)
    assert subsidies.total == Fraction(1, 2)


# ---------------------------------------------------------------------------
# pipeline and certificates
# ---------------------------------------------------------------------------

def test_pipeline_reference_instance(reference_instance):
    result = run_pipeline(reference_instance)
    subsidies, cert = result.subsidies, result.certificate
    assert cert.holds
    assert subsidies.total <= Fraction(11, 6)
    assert cert.strong_bound == Fraction(5, 3)
    assert subsidies.total <= cert.strong_bound
    # certificate chain is exact
    assert cert.rounded_total <= cert.component_subsidy_total
    assert cert.component_subsidy_total <= cert.component_bound_total
    assert cert.component_bound_total <= cert.global_bound


def test_pipeline_single_agent():
    inst = Instance(CHORES, ("1",), (("0.4", "0.9"),))
    result = run_pipeline(inst)
    allocation, subsidies, cert = result.allocation, result.subsidies, result.certificate
    assert allocation.owner == (0, 0)
    assert subsidies.total == 0
    assert cert.global_bound == 0
    assert cert.holds


def test_pipeline_rejects_invalid_instance():
    inst = Instance(CHORES, ("1/2", "1/3"), (("1", "1"), ("1", "1")))
    with pytest.raises(ModelError):
        run_pipeline(inst)


def test_pipeline_non_ido_instance_lifts_back():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0.9", "0.1"), ("0.2", "0.8")))
    result = run_pipeline(inst)
    allocation, subsidies, cert = result.allocation, result.subsidies, result.certificate
    assert cert.holds
    assert sorted(allocation.owner) != []
    recomputed = compute_subsidies(inst, allocation)
    assert recomputed.amounts == subsidies.amounts


def test_pipeline_goods_bound():
    for seed in range(30):
        inst = gen_random_instance(n=2 + seed % 7, m=3 + seed % 9, kind=GOODS, seed=seed)
        result = run_pipeline(inst)
        subsidies, cert = result.subsidies, result.certificate
        assert cert.holds
        assert subsidies.total <= Fraction(inst.n, 3)


def test_pipeline_chores_bounds_and_oracle():
    for seed in range(30):
        inst = gen_random_instance(n=2 + seed % 7, m=3 + seed % 9, seed=seed)
        result = run_pipeline(inst)
        cert = result.certificate
        assert cert.holds
        n = inst.n
        assert result.subsidies.total <= Fraction(n, 3) - Fraction(1, 6)
        optimum_alloc, optimum = brute_force_rounding(
            result.ido_instance, result.fractional
        )
        assert optimum.total <= cert.rounded_total
        assert cert.rounded_total <= cert.component_bound_total


def test_pipeline_baseline_method():
    inst = gen_random_instance(n=6, m=10, seed=3)
    cert = run_pipeline(inst, method=BASELINE).certificate
    assert cert.method == BASELINE
    assert cert.global_bound == Fraction(5, 2)
    assert cert.holds
    assert all(c.kind == "threshold_item" for c in cert.components)


def test_certificate_failure_reporting(reference_instance):
    cert = run_pipeline(reference_instance).certificate
    from dataclasses import replace

    broken = replace(cert, global_bound=Fraction(1, 100))
    assert not broken.holds
    assert any("exceed" in f for f in broken.failures())


def test_certificate_document(reference_instance):
    cert = run_pipeline(reference_instance).certificate
    doc = cert.to_doc()
    assert doc["holds"] is True
    assert doc["global_bound"] == "11/6"
    assert doc["strong_bound"] == "5/3"
    assert doc["has_shattered_item"] is True
    assert len(doc["trees"]) == 1
    json_text = cert.to_json()
    assert json_text.endswith("\n")
    assert cert.to_json() == json_text
