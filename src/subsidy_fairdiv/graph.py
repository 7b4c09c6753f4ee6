"""The item-sharing graph: a directed forest over agents.

Each agent with a successor contributes one edge, pointing at the
successor and labeled with the shared item.  Out-degree is at most one,
so the graph is a forest; treating each successor as a parent yields
rooted trees whose roots are the agents with no outgoing edge.

An item shared by three or more agents (a *shattered* item) shows up as
two or more edges with the same label; those edges always form a
directed path, the item's *atom-path*, and any valid splitting must keep
them together.

A tree's index (:class:`_TreeIndex`) is what one walk of it finds: each
node's edge to its parent, its children and its depth, the nodes in
preorder, and the atom-path of each shattered item.  A split builds it
once and reads it at every peel.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fbta import AllocationTrace
from .model import ModelError


class GraphError(ModelError):
    """Inconsistent trace or malformed forest (signals an upstream bug)."""


@dataclass(frozen=True)
class Edge:
    """Directed edge ``tail -> head`` labeled with the shared item."""

    tail: int
    head: int
    item: int


@dataclass(frozen=True)
class Tree:
    """One rooted tree of the forest; ``size`` counts edges."""

    root: int
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ItemSharingGraph:
    """The whole forest: ``n`` agent nodes and the successor edges."""

    n: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class AtomPath:
    """All edges of one shattered item, in successor order.

    ``agents`` lists the path's k+1 agents; ``agents[i + 1]`` is the
    successor of ``agents[i]`` and every edge carries ``item``.
    """

    item: int
    agents: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def k(self) -> int:
        return len(self.edges)


class _TreeIndex:
    """What one walk of a tree finds, for every later step of its split.

    ``parent[v]`` is node ``v``'s edge to its parent (the root has none),
    ``children[v]`` the tails of the edges into ``v``, ``depth[v]`` its
    distance from the root, ``order`` the nodes in preorder (each subtree a
    contiguous run, the root first), and ``paths`` the atom-path of each
    shattered item, by item index.
    """

    __slots__ = ("parent", "children", "depth", "order", "paths")

    def __init__(self, tree: Tree) -> None:
        children: dict[int, list[int]] = {v: [] for v in tree.nodes}
        by_item: dict[int, list[Edge]] = defaultdict(list)
        for e in tree.edges:
            children[e.head].append(e.tail)
            by_item[e.item].append(e)
        depth = {tree.root: 0}
        order = []
        stack = [tree.root]
        while stack:
            v = stack.pop()
            order.append(v)
            below = children[v]
            d = depth[v] + 1
            for c in below:
                depth[c] = d
            stack.extend(below)
        self.parent = {e.tail: e for e in tree.edges}
        self.children = children
        self.depth = depth
        self.order = order
        self.paths = {
            item: _chain(item, edges)
            for item, edges in sorted(by_item.items())
            if len(edges) >= 2
        }


def build_graph(trace: AllocationTrace) -> ItemSharingGraph:
    """Assemble the forest from a bid-and-take trace."""
    edges = []
    seen_tails = set()
    for rec in trace.successors:
        if rec.agent in seen_tails:
            raise GraphError(f"agent {rec.agent} has two successors in the trace")
        seen_tails.add(rec.agent)
        edges.append(Edge(rec.agent, rec.successor, rec.item))
    edges.sort(key=lambda e: (e.item, e.tail))
    graph = ItemSharingGraph(trace.n, tuple(edges))
    _check_forest(graph)
    return graph


def _check_forest(graph: ItemSharingGraph) -> None:
    if len(graph.edges) > max(graph.n - 1, 0):
        raise GraphError(f"{len(graph.edges)} edges for {graph.n} agents")
    out = {e.tail: e.head for e in graph.edges}
    # each walk stops at an agent an earlier walk reached, so every agent is
    # walked once; meeting an agent of the current walk closes a cycle
    walk_of: dict[int, int] = {}
    for walk, start in enumerate(out):
        v = start
        while v in out and v not in walk_of:
            walk_of[v] = walk
            v = out[v]
        if walk_of.get(v) == walk:
            raise GraphError("successor relation contains a cycle")


def components(edges: Iterable[Edge], nodes: Iterable[int] = ()) -> list[Tree]:
    """Connected components of a forest's edges as rooted trees.

    Every agent in ``nodes`` appears, as a one-node tree when no edge
    touches it; other agents appear only through their edges.  Trees are
    ordered by their smallest agent.  A component's root is its unique
    agent without an outgoing edge; a component without exactly one, or
    with an edge more than a tree has, is rejected.
    """
    edges = tuple(edges)
    neighbors: dict[int, list[int]] = {v: [] for v in nodes}
    for e in edges:
        neighbors.setdefault(e.tail, []).append(e.head)
        neighbors.setdefault(e.head, []).append(e.tail)
    label: dict[int, int] = {}
    groups: list[list[int]] = []
    for start in sorted(neighbors):
        if start in label:
            continue
        label[start] = len(groups)
        group = [start]
        for v in group:
            for w in neighbors[v]:
                if w not in label:
                    label[w] = len(groups)
                    group.append(w)
        groups.append(group)
    members: list[list[Edge]] = [[] for _ in groups]
    for e in edges:
        members[label[e.tail]].append(e)
    out = []
    for group, es in zip(groups, members):
        tails = {e.tail for e in es}
        roots = [v for v in group if v not in tails]
        if len(roots) != 1:
            raise GraphError(f"edge set has {len(roots)} roots, expected exactly one")
        if len(es) != len(group) - 1:
            raise GraphError(f"{len(es)} edges join {len(group)} agents, so no tree")
        es.sort(key=lambda e: (e.item, e.tail))
        out.append(Tree(roots[0], tuple(sorted(group)), tuple(es)))
    return out


def trees(graph: ItemSharingGraph) -> list[Tree]:
    """Every tree of the forest, singletons included, by smallest agent.

    Item sets of distinct trees are disjoint.
    """
    return components(graph.edges, range(graph.n))


def make_tree(edges: tuple[Edge, ...], nodes: tuple[int, ...] = ()) -> Tree:
    """The one tree :func:`components` finds in the edges and ``nodes``.

    Edges and nodes that form no tree or several trees are rejected.
    """
    found = components(edges, nodes)
    if len(found) != 1:
        raise GraphError(f"edge set forms {len(found)} trees, expected exactly one")
    return found[0]


def has_atom_path(edges: Sequence[Edge]) -> bool:
    """Whether some item labels two or more of the edges."""
    return len({e.item for e in edges}) < len(edges)


def find_atom_paths(tree: Tree) -> list[AtomPath]:
    """One atom-path per shattered item of the tree, by item index."""
    return list(_TreeIndex(tree).paths.values())


def _chain(item: int, edges: list[Edge]) -> AtomPath:
    step = {}
    heads = set()
    for e in edges:
        if e.tail in step:
            raise GraphError(f"item {item} leaves agent {e.tail} twice")
        step[e.tail] = e
        heads.add(e.head)
    starts = [t for t in step if t not in heads]
    if len(starts) != 1:
        raise GraphError(f"edges of item {item} do not form a single path")
    agents = [starts[0]]
    ordered = []
    while agents[-1] in step:
        e = step[agents[-1]]
        ordered.append(e)
        agents.append(e.head)
    if len(ordered) != len(edges):
        raise GraphError(f"edges of item {item} do not form a single path")
    return AtomPath(item, tuple(agents), tuple(ordered))


def to_dot(
    graph: ItemSharingGraph,
    agent_names: tuple[str, ...] | None = None,
    item_names: tuple[str, ...] | None = None,
) -> str:
    """DOT rendering of the forest; shattered-item edges are highlighted."""
    item_count: dict[int, int] = defaultdict(int)
    for e in graph.edges:
        item_count[e.item] += 1

    def quoted(name: str) -> str:
        return name.replace("\\", "\\\\").replace('"', '\\"')

    def agent_label(i: int) -> str:
        return quoted(agent_names[i]) if agent_names else f"agent{i}"

    def item_label(e: int) -> str:
        return quoted(item_names[e]) if item_names else f"e{e}"

    lines = ["digraph item_sharing {"]
    for i in range(graph.n):
        lines.append(f'  {i} [label="{agent_label(i)}"];')
    for e in graph.edges:
        style = ' color=red style=bold' if item_count[e.item] >= 2 else ""
        lines.append(f'  {e.tail} -> {e.head} [label="{item_label(e.item)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
