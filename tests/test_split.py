"""Tree splitting: pairs, atom-path extraction, and attachment donation."""
import random

import pytest

from subsidy_fairdiv import Edge
from subsidy_fairdiv.graph import find_atom_paths, make_tree
from subsidy_fairdiv.split import (
    Pair,
    SingleEdge,
    SplitError,
    atom_path_split,
    choose_attachment,
    simple_split,
    split_tree,
)
from reference import attached_agent, reference_choose_attachment


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
    # 2; the even component {3 -> 5, 4 -> 5} survives whole.
    eap, good = atom_path_split(reference_tree)
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
    assert len(good) == 1
    assert good[0].size == 2
    assert {(e.tail, e.head, e.item) for e in good[0].edges} == {
        (3, 5, 2),
        (4, 5, 4),
    }


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
    eap, good = atom_path_split(tree)
    assert eap.k == 3
    assert eap.h == 0
    assert good == []


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
    eap, good = atom_path_split(tree)
    assert eap.k == 3
    assert eap.h == 2
    attach = {agent: edge for agent, edge in eap.attachments}
    assert set(attach) == {0, 2}
    # the donated edge at agent 0 must leave even pieces on both sides:
    # only (11, 0) qualifies (far side {13, 14}, near side {10, 12})
    assert (attach[0].tail, attach[0].head, attach[0].item) == (11, 0, 2)
    assert (attach[2].tail, attach[2].head, attach[2].item) == (20, 2, 6)
    sizes = sorted(t.size for t in good)
    assert sizes == [2, 2, 2, 3]
    # the size-3 survivor is the one with its own atom-path
    odd_one = [t for t in good if t.size == 3][0]
    assert find_atom_paths(odd_one)
    # donated plus surviving edges partition the original tree
    covered = [(e.tail, e.head, e.item) for t in good for e in t.edges]
    covered += [(e.tail, e.head, e.item) for e in eap.edges]
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
    eap, good = atom_path_split(tree)
    assert eap.path.item == 3
    assert len(good) == 1
    assert good[0].size == 3
    assert find_atom_paths(good[0])[0].item == 8


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
            if tree.size == 0 or find_atom_paths(tree):
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


def test_choose_attachment_single_edge_component():
    edges = [Edge(7, 1, 4)]
    donated = choose_attachment(edges, contact=1)
    assert donated is edges[0]


def test_choose_attachment_star_prefers_smallest_item():
    edges = [Edge(10, 1, 6), Edge(11, 1, 5), Edge(12, 1, 8)]
    donated = choose_attachment(edges, contact=1)
    assert donated.item == 5


def test_choose_attachment_rejects_even_component():
    with pytest.raises(SplitError):
        choose_attachment([Edge(10, 1, 0), Edge(11, 1, 1)], contact=1)


def test_choose_attachment_matches_the_per_edge_walk():
    # random odd atom-path-free trees: every node touches an edge whose far
    # side is even, so every node is a valid contact
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
            got = choose_attachment(edges, contact)
            assert got == reference_choose_attachment(edges, contact)
            checked += 1
    assert checked > 1000
