"""Tree splitting: pairs, atom-path extraction, and attachment donation.

The split of a tree with atom-paths is checked against
``reference_split_tree``, which searches the rest of the tree again at
every peel, on the forests of tie-free instances, on chains, on stars and
on generated trees whose shattered items form chains.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import CHORES, GOODS, Edge
from subsidy_fairdiv.graph import _TreeIndex, make_tree
from subsidy_fairdiv.split import (
    ExpandedAtomPath,
    Pair,
    SingleEdge,
    SplitError,
    atom_path_split,
    choose_attachment,
    simple_split,
    split_tree,
)
from reference import (
    attached_agent,
    fractional_run,
    reference_atom_path_split,
    reference_choose_attachment,
    reference_split_tree,
)
from test_metamorphic import tie_free


def edge_ids(component):
    return {(e.tail, e.head, e.item) for e in component.edges}


def test_simple_split_on_worked_example_shape():
    # Same tree shape as the worked example but with five distinct
    # items: the deepest leaf pairs with its sibling, then the chain
    # pairs 2->3 with 3->5, leaving 4->5 single.
    edges = (
        Edge(0, 2, 0),
        Edge(1, 2, 1),
        Edge(2, 3, 2),
        Edge(3, 5, 3),
        Edge(4, 5, 4),
    )
    tree = make_tree(edges)
    parts = simple_split(tree)
    assert [p.kind for p in parts] == ["pair", "pair", "single_edge"]
    assert edge_ids(parts[0]) == {(0, 2, 0), (1, 2, 1)}
    assert parts[0].middle == 2
    assert edge_ids(parts[1]) == {(2, 3, 2), (3, 5, 3)}
    assert parts[1].middle == 3
    assert edge_ids(parts[2]) == {(4, 5, 4)}


def test_simple_split_single_edge():
    tree = make_tree((Edge(0, 1, 0),))
    parts = simple_split(tree)
    assert len(parts) == 1
    assert isinstance(parts[0], SingleEdge)


def test_simple_split_path_of_four():
    # A path of four edges pairs from the deepest end: forced pairing.
    edges = tuple(Edge(i, i + 1, i) for i in range(4))
    tree = make_tree(edges)
    parts = simple_split(tree)
    assert [p.kind for p in parts] == ["pair", "pair"]
    assert edge_ids(parts[0]) == {(0, 1, 0), (1, 2, 1)}
    assert edge_ids(parts[1]) == {(2, 3, 2), (3, 4, 3)}


def test_simple_split_counts():
    # star with three leaves plus a tail below one leaf
    edges = (Edge(1, 0, 0), Edge(2, 0, 1), Edge(3, 0, 2), Edge(4, 1, 3))
    tree = make_tree(edges)
    parts = simple_split(tree)
    pairs = [p for p in parts if isinstance(p, Pair)]
    singles = [p for p in parts if isinstance(p, SingleEdge)]
    assert len(pairs) == 2
    assert len(singles) == 0
    covered = set()
    for p in parts:
        covered |= edge_ids(p)
    assert covered == {(e.tail, e.head, e.item) for e in edges}


def test_simple_split_rejects_atom_path():
    tree = make_tree((Edge(0, 1, 5), Edge(1, 2, 5)))
    with pytest.raises(SplitError):
        simple_split(tree)


def test_atom_path_split_worked_example(reference_tree):
    # The odd single-edge component {0 -> 2} must attach at path agent
    # 2; the even component {3 -> 5, 4 -> 5} survives whole and follows
    # as one pair.
    eap, *good = atom_path_split(reference_tree)
    assert eap.path.item == 1
    assert eap.path.agents == (1, 2, 3)
    assert eap.k == 2
    assert eap.h == 1
    assert eap.attachments[0][0] == 2
    assert (
        eap.attachments[0][1].tail,
        eap.attachments[0][1].head,
        eap.attachments[0][1].item,
    ) == (0, 2, 0)
    assert attached_agent(eap, 2) == 0
    assert attached_agent(eap, 1) is None
    assert [edge_ids(p) for p in good] == [{(3, 5, 2), (4, 5, 4)}]


def test_split_tree_orders_nested_atom_paths_depth_first():
    # Peeling item 0's path (0 -> 1 -> 2) leaves two subtrees, the one at
    # agent 0 (items 1 and 3) before the one at agent 2 (item 2); the
    # first is split in full, item 3 included, before the second starts.
    edges = (
        Edge(0, 1, 0), Edge(1, 2, 0),
        Edge(3, 4, 1), Edge(4, 0, 1),
        Edge(5, 6, 3), Edge(6, 3, 3),
        Edge(7, 8, 2), Edge(8, 2, 2),
    )
    parts = split_tree(make_tree(edges))
    assert [p.kind for p in parts] == ["expanded_atom_path"] * 4
    assert [p.path.item for p in parts] == [0, 1, 3, 2]
    assert split_tree(make_tree((), nodes=(3,))) == []


def test_atom_path_split_pure_path():
    tree = make_tree((Edge(0, 1, 9), Edge(1, 2, 9), Edge(2, 3, 9)))
    eap, *rest = atom_path_split(tree)
    assert eap.k == 3
    assert eap.h == 0
    assert rest == []


def test_atom_path_split_requires_atom_path():
    tree = make_tree((Edge(0, 1, 0), Edge(1, 2, 1)))
    with pytest.raises(SplitError):
        atom_path_split(tree)


def test_atom_path_split_donation_with_even_remainders():
    # Core path 0 -> 1 -> 2 -> 3 on item 100 (k = 3).  Below agent 0
    # hangs an odd 5-edge component that donates one edge and leaves two
    # even pieces; below agent 2 hangs a single edge (donated whole);
    # below agent 3 hangs an even chain kept intact; agent 1 carries an
    # own-atom-path component kept intact.
    core = (Edge(0, 1, 100), Edge(1, 2, 100), Edge(2, 3, 100))
    below0 = (
        Edge(10, 0, 1),
        Edge(11, 0, 2),
        Edge(12, 10, 3),
        Edge(13, 11, 4),
        Edge(14, 11, 5),
    )
    below2 = (Edge(20, 2, 6),)
    below3 = (Edge(30, 3, 7), Edge(31, 30, 8))
    below1 = (Edge(40, 1, 9), Edge(41, 40, 101), Edge(42, 41, 101))
    tree = make_tree(core + below0 + below2 + below3 + below1)
    eap, *rest = atom_path_split(tree)
    assert eap.k == 3
    assert eap.h == 2
    attach = {agent: edge for agent, edge in eap.attachments}
    assert set(attach) == {0, 2}
    # the donated edge at agent 0 must leave even pieces on both sides:
    # only (11, 0) qualifies (far side {13, 14}, near side {10, 12})
    assert (attach[0].tail, attach[0].head, attach[0].item) == (11, 0, 2)
    assert (attach[2].tail, attach[2].head, attach[2].item) == (20, 2, 6)
    # the near piece at agent 0, the far piece, the component with its own
    # atom-path (item 101, which takes agent 40's edge to agent 1), then the
    # even chain below agent 3
    assert [p.kind for p in rest] == ["pair", "pair", "expanded_atom_path", "pair"]
    assert edge_ids(rest[0]) == {(10, 0, 1), (12, 10, 3)}
    assert edge_ids(rest[1]) == {(13, 11, 4), (14, 11, 5)}
    assert rest[2].path.item == 101
    assert [(a, (e.tail, e.head, e.item)) for a, e in rest[2].attachments] == [(40, (40, 1, 9))]
    assert edge_ids(rest[3]) == {(30, 3, 7), (31, 30, 8)}
    # the old split's subtrees: two even pieces, the even chain and the
    # size-3 survivor with its own atom-path
    _, good = reference_atom_path_split(tree)
    assert sorted(t.size for t in good) == [2, 2, 2, 3]
    assert _TreeIndex([t for t in good if t.size == 3][0]).paths
    # donated plus surviving edges partition the original tree
    covered = [(e.tail, e.head, e.item) for p in [eap] + rest for e in p.edges]
    assert sorted(covered) == sorted(
        (e.tail, e.head, e.item) for e in tree.edges
    )


def test_atom_path_split_picks_smallest_item_core():
    # Two atom-paths: items 3 and 8; the core must be item 3 and the
    # other stays whole inside a good subtree.
    edges = (
        Edge(0, 1, 3),
        Edge(1, 2, 3),
        Edge(10, 0, 8),
        Edge(11, 10, 8),
        Edge(12, 11, 9),
    )
    tree = make_tree(edges)
    eap, *rest = atom_path_split(tree)
    assert eap.path.item == 3
    # the size-3 subtree at agent 0 holds item 8's path, which takes the
    # edge below it
    assert [p.kind for p in rest] == ["expanded_atom_path"]
    assert rest[0].path.item == 8
    assert [(a, e.item) for a, e in rest[0].attachments] == [(11, 9)]


def test_simple_split_properties_on_random_trees():
    from subsidy_fairdiv import gen_random_instance
    from subsidy_fairdiv.graph import build_graph, trees
    from subsidy_fairdiv.fbta import fbta

    checked = 0
    for seed in range(150):
        inst = gen_random_instance(
            n=2 + seed % 9, m=2 + seed % 14, seed=seed, force_ido=True,
            kind=("chores", "goods")[seed % 2],
        )
        _, trace = fbta(inst)
        for tree in trees(build_graph(trace)):
            if tree.size == 0 or _TreeIndex(tree).paths:
                continue
            checked += 1
            parts = simple_split(tree)
            pairs = [p for p in parts if isinstance(p, Pair)]
            singles = [p for p in parts if isinstance(p, SingleEdge)]
            assert len(pairs) == tree.size // 2
            assert len(singles) == tree.size % 2
            covered = []
            for p in parts:
                covered.extend(p.edges)
            assert sorted(covered, key=lambda e: (e.item, e.tail)) == sorted(
                tree.edges, key=lambda e: (e.item, e.tail)
            )
            for p in pairs:
                ends1 = {p.first.tail, p.first.head}
                ends2 = {p.second.tail, p.second.head}
                assert p.middle in ends1 and p.middle in ends2
                assert p.first.item != p.second.item
    assert checked >= 40


def attach(edges, contact):
    """:func:`choose_attachment` on the tree of ``edges``, walked from its root."""
    tree = make_tree(tuple(edges))
    index = _TreeIndex(tree)
    nodes = [tree.root]
    for v in nodes:
        nodes.extend(index.children[v])
    return choose_attachment(index, nodes, contact)


def test_choose_attachment_single_edge_component():
    edges = [Edge(7, 1, 4)]
    assert attach(edges, contact=1) == edges[0]
    assert attach(edges, contact=7) == edges[0]


def test_choose_attachment_star_prefers_smallest_item():
    edges = [Edge(10, 1, 6), Edge(11, 1, 5), Edge(12, 1, 8)]
    donated = attach(edges, contact=1)
    assert donated.item == 5


def test_choose_attachment_matches_the_per_edge_walk():
    # random odd atom-path-free trees: every node touches an edge whose far
    # side is even, so every node is a valid contact; one that is not the
    # root has its own edge to its parent among the candidates
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        size = rng.choice(range(1, 16, 2))
        items = rng.sample(range(40), size)
        label = rng.sample(range(size + 1), size + 1)
        edges = [
            Edge(label[v], label[rng.randrange(v)], items[v - 1])
            for v in range(1, size + 1)
        ]
        rng.shuffle(edges)
        for contact in range(size + 1):
            got = attach(edges, contact)
            assert got == reference_choose_attachment(edges, contact)
            checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# the split against the reference split
# ---------------------------------------------------------------------------

def chain(size, order=None):
    """A path of ``size`` edges, agent i -> i + 1, cut into two-edge
    atom-paths from the bottom up; the j-th of them carries item
    ``order[j]`` (item j by default), and an odd chain's top edge item
    ``size // 2``."""
    order = list(order or range(size // 2)) + [size // 2]
    return make_tree(
        tuple(Edge(i, i + 1, order[i // 2]) for i in range(size))
    )


def broom(k, leaves):
    """An atom-path of ``k`` edges, agent i -> i + 1 on item 0, with a hub edge
    into each path agent and ``leaves`` leaf edges into each hub, each edge
    off the path on the item of its tail."""
    edges = [Edge(i, i + 1, 0) for i in range(k)]
    for agent in range(k + 1):
        hub = k + 1 + (leaves + 1) * agent
        edges.append(Edge(hub, agent, hub))
        edges += [Edge(leaf, hub, leaf) for leaf in range(hub + 1, hub + 1 + leaves)]
    return make_tree(tuple(edges))


def test_split_matches_the_reference_on_tie_free_forests():
    checked = 0
    for seed in range(240):
        n = 2 + seed % 12
        inst = tie_free((CHORES, GOODS)[seed % 2], n, n + seed % (2 * n), seed)
        for tree in fractional_run(inst)[2]:
            assert split_tree(tree) == reference_split_tree(tree)
            checked += bool(_TreeIndex(tree).paths)
    assert checked >= 10


@pytest.mark.parametrize("size", [2, 3, 4, 5, 9, 10, 40, 101, 300, 600])
def test_split_matches_the_reference_on_chains(size):
    pairs = size // 2
    shuffled = list(range(pairs))
    random.Random(size).shuffle(shuffled)
    for order in (None, list(reversed(range(pairs))), shuffled):
        tree = chain(size, order)
        assert split_tree(tree) == reference_split_tree(tree)


def test_split_of_a_long_chain_in_closed_form():
    # 1,200 two-edge atom-paths, item i over agents 2i, 2i+1, 2i+2: each
    # peel leaves two lone agents and one piece holding every later path
    tree = chain(2400)
    parts = split_tree(tree)
    assert len(parts) == 1200
    assert all(isinstance(p, ExpandedAtomPath) and p.h == 0 for p in parts)
    assert [p.path.item for p in parts] == list(range(1200))
    assert [p.path.agents for p in parts] == [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(1200)]
    assert sum(Fraction(p.k + p.h, 3) for p in parts) == Fraction(2400, 3)
    # the same chain with the smallest item on top peels from the root down
    top_down = split_tree(chain(2400, list(reversed(range(1200)))))
    assert [p.path.item for p in top_down] == list(range(1200))
    assert [p.path.agents[0] for p in top_down] == [2398 - 2 * i for i in range(1200)]


@pytest.mark.parametrize("arms", [1, 2, 3, 7, 20])
def test_split_matches_the_reference_on_stars_of_atom_paths(arms):
    # arm a: a two- or three-edge atom-path into agent 0, with a pendant
    # edge at every other path agent and a two-edge tail on every third;
    # then brooms of arms + 1 path edges with hubs of 2 to 4 leaves
    rng = random.Random(arms)
    edges = []
    agents = iter(range(1, 10_000))
    items = iter(rng.sample(range(10_000), 10_000))
    for a in range(arms):
        path = [next(agents) for _ in range(2 + a % 2)] + [0]
        item = next(items)
        edges += [Edge(u, v, item) for u, v in zip(path, path[1:])]
        for v in path[1 - a % 2:-1:2]:
            edges.append(Edge(next(agents), v, next(items)))
        if a % 3 == 0:
            tail = next(agents)
            edges += [Edge(tail, path[0], next(items)), Edge(next(agents), tail, next(items))]
    tree = make_tree(tuple(edges))
    parts = split_tree(tree)
    assert parts == reference_split_tree(tree)
    assert sum(isinstance(p, ExpandedAtomPath) for p in parts) == arms
    # brooms: each path agent's region, a hub and its leaves, donates the
    # hub's edge when it has an odd edge count and stays whole otherwise
    for leaves in (arms % 2 + 2, arms % 2 + 3):
        tree = broom(arms + 1, leaves)
        parts = split_tree(tree)
        assert parts == reference_split_tree(tree)
        assert parts[0].h == (arms + 2) * (leaves % 2 == 0)


@st.composite
def trees_with_atom_paths(draw, max_nodes=40):
    """A random tree whose edges are cut into upward chains, each chain one
    item: a chain of two or more edges is an atom-path.  Agents and items
    are numbered in drawn orders."""
    size = draw(st.integers(2, max_nodes))
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, size)]
    item_of = [None] * size
    chains = 0
    for v in draw(st.permutations(range(1, size))):
        if item_of[v] is not None:
            continue
        u = v
        while True:
            item_of[u] = chains
            u = parent[u]
            if u == 0 or item_of[u] is not None or not draw(st.booleans()):
                break
        chains += 1
    agent = draw(st.permutations(range(size)))
    item = draw(st.permutations(range(chains)))
    return make_tree(
        tuple(Edge(agent[v], agent[parent[v]], item[item_of[v]]) for v in range(1, size))
    )


@given(trees_with_atom_paths())
@settings(max_examples=300, deadline=None)
def test_split_matches_the_reference_on_generated_trees(tree):
    assert split_tree(tree) == reference_split_tree(tree)
