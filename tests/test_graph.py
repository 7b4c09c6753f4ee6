"""Item-sharing forest construction, trees, and atom-path detection."""
import random

import pytest

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    Edge,
    Instance,
    ItemSharingGraph,
    gen_random_instance,
    to_dot,
)
from subsidy_fairdiv.fbta import fbta
from subsidy_fairdiv.graph import (
    GraphError,
    _TreeIndex,
    build_graph,
    make_tree,
    trees,
)
from subsidy_fairdiv.ido import reduce_to_ido
from conftest import REFERENCE_EDGES
from reference import reference_components


def assert_forest_matches_reference(graph):
    """The walk down from the roots finds the trees of the undirected search."""
    assert trees(graph) == reference_components(graph.edges, range(graph.n))


def test_worked_example_graph(reference_run):
    _, _, graph = reference_run
    assert tuple((e.tail, e.head, e.item) for e in graph.edges) == REFERENCE_EDGES
    forest = trees(graph)
    assert len(forest) == 1
    tree = forest[0]
    assert tree.root == 5
    assert tree.size == 5


def test_worked_example_atom_path(reference_tree):
    paths = list(_TreeIndex(reference_tree).paths.values())
    assert len(paths) == 1
    path = paths[0]
    assert path.item == 1
    assert path.agents == (1, 2, 3)
    assert path.k == 2


def test_no_successors_gives_edgeless_graph():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    _, trace = fbta(inst)
    graph = build_graph(trace)
    assert graph.edges == ()
    forest = trees(graph)
    assert [t.size for t in forest] == [0, 0]
    assert [t.root for t in forest] == [0, 1]


def test_two_agents_sharing_one_item():
    inst = Instance(CHORES, ("1/4", "3/4"), (("1", "1"), ("1", "1")))
    alloc, trace = fbta(inst)
    graph = build_graph(trace)
    assert [(e.tail, e.head, e.item) for e in graph.edges] == [(0, 1, 0)]


def test_two_disjoint_shared_pairs_make_two_trees():
    from subsidy_fairdiv.fbta import AllocationTrace, SuccessorRecord

    trace = AllocationTrace(
        kind=CHORES,
        n=4,
        m=2,
        successors=(SuccessorRecord(0, 1, 0), SuccessorRecord(2, 3, 1)),
    )
    forest = trees(build_graph(trace))
    assert [(t.root, t.size, t.nodes) for t in forest] == [
        (1, 1, (0, 1)),
        (3, 1, (2, 3)),
    ]


def test_four_agent_chain_on_one_item():
    # Three agents fill inside the first item, chaining three successor
    # edges on it: an atom-path with k = 3.
    inst = Instance(
        CHORES,
        ("1/8", "1/8", "1/8", "5/8"),
        (("1", "1"),) * 4,
    )
    alloc, trace = fbta(inst)
    graph = build_graph(trace)
    assert [(e.tail, e.head, e.item) for e in graph.edges] == [
        (0, 1, 0),
        (1, 2, 0),
        (2, 3, 0),
    ]
    tree = trees(graph)[0]
    paths = list(_TreeIndex(tree).paths.values())
    assert len(paths) == 1
    assert paths[0].agents == (0, 1, 2, 3)
    assert paths[0].k == 3


def test_forest_invariants_on_random_instances():
    for seed in range(60):
        inst = gen_random_instance(
            n=2 + seed % 8, m=2 + seed % 14, kind=("chores", "goods")[seed % 2],
            seed=seed, force_ido=True,
        )
        alloc, trace = fbta(inst)
        graph = build_graph(trace)
        assert len(graph.edges) <= inst.n - 1
        tails = [e.tail for e in graph.edges]
        assert len(tails) == len(set(tails))
        forest = trees(graph)
        # trees partition the agents; their item sets are disjoint
        seen_nodes = [v for t in forest for v in t.nodes]
        assert sorted(seen_nodes) == list(range(inst.n))
        item_sets = [set(e.item for e in t.edges) for t in forest]
        for i in range(len(item_sets)):
            for j in range(i + 1, len(item_sets)):
                assert not (item_sets[i] & item_sets[j])
        # every edge endpoint holds a share of the edge item
        for e in graph.edges:
            assert alloc.shares[e.tail][e.item] > 0
            assert alloc.shares[e.head][e.item] > 0
        # shattered items induce atom-paths covering all their edges
        for t in forest:
            by_item = {}
            for e in t.edges:
                by_item.setdefault(e.item, []).append(e)
            paths = list(_TreeIndex(t).paths.values())
            assert len(paths) == sum(1 for v in by_item.values() if len(v) >= 2)
            assert sum(p.k for p in paths) == sum(
                len(v) for v in by_item.values() if len(v) >= 2
            )


def test_duplicate_outgoing_edge_rejected():
    from subsidy_fairdiv.fbta import AllocationTrace, SuccessorRecord

    trace = AllocationTrace(
        kind=CHORES,
        n=3,
        m=2,
        successors=(
            SuccessorRecord(0, 1, 0),
            SuccessorRecord(0, 2, 1),
        ),
    )
    with pytest.raises(GraphError):
        build_graph(trace)


def test_cycle_rejected():
    graph = ItemSharingGraph(2, (Edge(0, 1, 0), Edge(1, 0, 1)))
    with pytest.raises(GraphError):
        trees(graph)


def _successor_trace(n, hand_offs):
    """A trace whose i-th hand-off ``(agent, successor)`` carries item i."""
    from subsidy_fairdiv.fbta import AllocationTrace, SuccessorRecord

    return AllocationTrace(
        kind=CHORES,
        n=n,
        m=len(hand_offs),
        successors=tuple(SuccessorRecord(a, s, e) for e, (a, s) in enumerate(hand_offs)),
    )


def test_cycle_below_a_long_chain_rejected():
    # 0 -> 1 -> ... -> 2000 runs into the cycle 2000 -> 2001 -> 2000, which
    # no root reaches; the idle agents are roots of their own.  Reversed,
    # the hand-offs list the cycle first.
    hand_offs = [(v, v + 1) for v in range(2001)] + [(2001, 2000)]
    for order in (hand_offs, hand_offs[::-1]):
        graph = build_graph(_successor_trace(4000, order))
        with pytest.raises(GraphError, match="cycle"):
            trees(graph)
        with pytest.raises(GraphError):
            reference_components(graph.edges, range(graph.n))


def test_long_path_accepted():
    n = 5000
    graph = build_graph(_successor_trace(n, [(v, v + 1) for v in range(n - 1)]))
    assert len(graph.edges) == n - 1
    (tree,) = trees(graph)
    assert (tree.root, tree.size, tree.nodes) == (n - 1, n - 1, tuple(range(n)))
    assert_forest_matches_reference(graph)


def test_forest_matches_the_reference_on_acceptance_shapes():
    # the shapes of the acceptance suite: n = 2..10, m <= 20, both kinds
    for seed in range(300):
        n = 2 + seed % 9
        inst = gen_random_instance(
            n=n, m=n + (seed * 7) % (21 - n), kind=(CHORES, GOODS)[seed % 2],
            seed=seed, dist=("uniform", "correlated")[(seed // 2) % 2],
        )
        _, trace = fbta(reduce_to_ido(inst))
        assert_forest_matches_reference(build_graph(trace))


def test_forest_matches_the_reference_on_generated_forests():
    # each agent hands off to a random agent numbered above it, or to nobody,
    # on one of n // 2 + 1 items; the agents are then numbered in a random order
    rng = random.Random(23)
    for n in range(1, 62):
        for _ in range(10):
            label = rng.sample(range(n), n)
            edges = tuple(
                Edge(label[v], label[rng.randrange(v + 1, n)], rng.randrange(n // 2 + 1))
                for v in range(n - 1)
                if rng.random() < 0.8
            )
            assert_forest_matches_reference(ItemSharingGraph(n, edges))


def test_hand_off_to_an_agent_outside_the_trace_rejected():
    from subsidy_fairdiv.fbta import AllocationTrace, SuccessorRecord

    for record in (SuccessorRecord(0, 7, 0), SuccessorRecord(-1, 1, 0)):
        trace = AllocationTrace(kind=CHORES, n=2, m=1, successors=(record,))
        with pytest.raises(GraphError, match="outside"):
            build_graph(trace)


def test_hand_off_of_an_item_outside_the_trace_rejected():
    from subsidy_fairdiv.fbta import AllocationTrace, SuccessorRecord

    for item in (5, 1, -1):
        trace = AllocationTrace(
            kind=CHORES, n=2, m=1, successors=(SuccessorRecord(0, 1, item),)
        )
        with pytest.raises(GraphError, match="outside"):
            build_graph(trace)


@pytest.mark.parametrize(
    "edges, agent",
    [((Edge(0, 5, 0),), 5), ((Edge(-1, 0, 0),), -1), ((Edge(2, 3, 0), Edge(0, 1, 1)), 2)],
)
def test_trees_reject_an_agent_outside_the_graph(edges, agent):
    with pytest.raises(GraphError, match=f"^agent {agent} lies outside the graph's 2 agents$"):
        trees(ItemSharingGraph(2, edges))


def test_make_tree_needs_single_root():
    with pytest.raises(GraphError):
        make_tree((Edge(0, 1, 0), Edge(2, 3, 1)))


def test_make_tree_rejects_a_second_path_to_the_root():
    # one root and connected, but agent 0 reaches root 3 two ways
    with pytest.raises(GraphError, match="agent 0 has two successors"):
        make_tree((Edge(0, 1, 0), Edge(0, 2, 1), Edge(1, 3, 2), Edge(2, 3, 3)))


def test_broken_atom_path_rejected():
    # Same-item edges that fork instead of chaining.
    tree = make_tree((Edge(0, 2, 7), Edge(1, 2, 7)))
    with pytest.raises(GraphError):
        _TreeIndex(tree)


def test_dot_export(reference_run, reference_instance):
    _, _, graph = reference_run
    dot = to_dot(graph)
    assert dot.startswith("digraph item_sharing {")
    assert '1 -> 2 [label="e1" color=red style=bold];' in dot
    assert '0 -> 2 [label="e0"];' in dot
    named = to_dot(
        graph,
        agent_names=tuple(f"a{i}" for i in range(6)),
        item_names=tuple(f"task{i}" for i in range(6)),
    )
    assert '[label="task1" color=red style=bold]' in named


def test_dot_export_escapes_names(reference_run):
    _, _, graph = reference_run
    dot = to_dot(
        graph,
        agent_names=('say "hi"',) + tuple(f"a{i}" for i in range(1, 6)),
        item_names=("b\\",) + tuple(f"task{i}" for i in range(1, 6)),
    )
    assert '  0 [label="say \\"hi\\""];' in dot
    assert '0 -> 2 [label="b\\\\"];' in dot
