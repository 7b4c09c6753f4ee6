"""Splitting a tree of the item-sharing forest into roundable components.

Trees without shattered items split into adjacent-edge pairs (plus at
most one leftover single edge) in one pass over the non-root nodes,
deepest first and ties to the smaller agent: a node whose edge is still
unpaired takes it together with its smallest unpaired sibling's edge if
one exists, otherwise with its parent's edge.  The remainder stays a
connected tree with the same root and depths, so a size-z tree yields
exactly ``z // 2`` pairs and ``z % 2`` singletons.

Trees with a shattered item instead split around an atom-path.  The
atom-path's edges come out as one unit; every remaining component that
contains an atom-path or has an even number of edges survives intact,
and every odd atom-path-free component donates one edge incident to its
(unique) atom-path agent, chosen so that the donation leaves only
even-size pieces.  The donated edges attach to the atom-path, at most
one per path agent, forming an expanded atom-path.  Every component and
piece is found by :func:`~subsidy_fairdiv.graph.components`.

:func:`split_tree` is the entry point and alone fixes the component
order that every certificate records.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .graph import (
    AtomPath,
    Edge,
    GraphError,
    Tree,
    components,
    find_atom_paths,
    has_atom_path,
)
from .model import ModelError


class SplitError(ModelError):
    """Splitting precondition failure."""


@dataclass(frozen=True)
class SingleEdge:
    """A lone edge; rounded by plain threshold rounding."""

    edge: Edge

    kind = "single_edge"

    @property
    def edges(self) -> tuple[Edge, ...]:
        return (self.edge,)


@dataclass(frozen=True)
class Pair:
    """Two adjacent edges with distinct items, sharing ``middle``."""

    first: Edge
    second: Edge
    middle: int

    kind = "pair"

    @property
    def edges(self) -> tuple[Edge, ...]:
        return (self.first, self.second)

    @property
    def outer(self) -> tuple[int, int]:
        ends = []
        for e in (self.first, self.second):
            ends.append(e.head if e.tail == self.middle else e.tail)
        return (ends[0], ends[1])


@dataclass(frozen=True)
class ExpandedAtomPath:
    """An atom-path plus at most one attached edge per path agent.

    ``attachments`` maps path agents to donated edges as sorted
    ``(path_agent, edge)`` entries.
    """

    path: AtomPath
    attachments: tuple[tuple[int, Edge], ...]

    kind = "expanded_atom_path"

    @property
    def k(self) -> int:
        return self.path.k

    @property
    def h(self) -> int:
        return len(self.attachments)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.path.edges + tuple(e for _, e in self.attachments)


Component = SingleEdge | Pair | ExpandedAtomPath


def simple_split(tree: Tree) -> list[Pair | SingleEdge]:
    """Split an atom-path-free tree into edge pairs plus <= 1 single edge."""
    if has_atom_path(tree.edges):
        raise SplitError("tree contains an atom-path; use atom_path_split")
    # node -> its edge to its parent; node -> its children not yet paired
    outgoing: dict[int, Edge] = {}
    live: dict[int, set[int]] = defaultdict(set)
    for e in tree.edges:
        outgoing[e.tail] = e
        live[e.head].add(e.tail)
    depths = {tree.root: 0}
    order = [tree.root]
    for v in order:
        for c in live[v]:
            depths[c] = depths[v] + 1
            order.append(c)
    done: set[int] = set()
    left = tree.size
    out: list[Pair | SingleEdge] = []
    for v in sorted(outgoing, key=lambda v: (-depths[v], v)):
        if v in done:
            continue
        own = outgoing[v]
        if left == 1:
            out.append(SingleEdge(own))
            break
        parent = own.head
        siblings = live[parent]
        siblings.discard(v)
        if siblings:
            mate_node = min(siblings)
            siblings.discard(mate_node)
        elif parent in outgoing:
            # the parent's edge goes with it and the parent leaves the tree
            mate_node = parent
            live[outgoing[parent].head].discard(parent)
        else:
            # parent is the root and v its only child, impossible with two
            # or more edges left
            raise GraphError("simple split lost track of the tree shape")
        done.add(mate_node)
        out.append(Pair(own, outgoing[mate_node], middle=parent))
        left -= 2
    return out


def choose_attachment(edges: list[Edge], contact: int) -> Edge:
    """Pick the donated edge of an odd atom-path-free component.

    Returns an edge incident to ``contact`` whose removal leaves the far
    side with an even number of edges (the near side is then also even);
    a parity argument guarantees one exists.  Ties go to the smallest
    item index.
    """
    if len(edges) % 2 == 0:
        raise SplitError("component has even size, nothing to donate")
    if has_atom_path(edges):
        raise SplitError("component contains an atom-path, nothing to donate")
    # with the contact's edges gone, an edge's far side is its far end's piece
    far_size = {
        v: piece.size
        for piece in components(e for e in edges if contact not in (e.tail, e.head))
        for v in piece.nodes
    }
    candidates = [
        e
        for e in edges
        if contact in (e.tail, e.head)
        and far_size.get(e.head if e.tail == contact else e.tail, 0) % 2 == 0
    ]
    if not candidates:
        raise GraphError("no even-side edge at the atom-path agent; parity broken")
    return min(candidates, key=lambda e: (e.item, e.tail))


def atom_path_split(tree: Tree) -> tuple[ExpandedAtomPath, list[Tree]]:
    """Split a tree with a shattered item around one atom-path.

    The atom-path with the smallest item index becomes the core of the
    expanded atom-path; the returned subtrees each contain an atom-path
    or have even size.
    """
    paths = find_atom_paths(tree)
    if not paths:
        raise SplitError("tree has no atom-path; use simple_split")
    path = paths[0]
    path_agents = set(path.agents)
    rest = [e for e in tree.edges if e.item != path.item]
    attachments: list[tuple[int, Edge]] = []
    good: list[Tree] = []
    for comp in components(rest):
        if has_atom_path(comp.edges) or comp.size % 2 == 0:
            good.append(comp)
            continue
        contacts = sorted(path_agents.intersection(comp.nodes))
        if len(contacts) != 1:
            raise GraphError(
                f"odd component touches the atom-path at {len(contacts)} agents"
            )
        contact = contacts[0]
        donated = choose_attachment(comp.edges, contact)
        attachments.append((contact, donated))
        for piece in components(e for e in comp.edges if e != donated):
            if piece.size % 2 != 0:
                raise GraphError("donation left an odd piece; parity broken")
            good.append(piece)
    attachments.sort()
    seen_agents = [a for a, _ in attachments]
    if len(seen_agents) != len(set(seen_agents)):
        raise GraphError("a path agent collected two attachments")
    return ExpandedAtomPath(path, tuple(attachments)), good


def split_tree(tree: Tree) -> list[Component]:
    """A tree's components in their canonical order.

    A tree with an atom-path yields the expanded atom-path of
    :func:`atom_path_split`, then the split of each returned subtree in
    turn; any other tree yields its :func:`simple_split`, an edgeless one
    nothing.  Subtrees wait on a stack, not in Python frames, so nesting
    depth is unbounded.
    """
    out: list[Component] = []
    stack = [tree]
    while stack:
        tree = stack.pop()
        if has_atom_path(tree.edges):
            eap, subtrees = atom_path_split(tree)
            out.append(eap)
            stack.extend(reversed(subtrees))
        elif tree.size:
            out.extend(simple_split(tree))
    return out
