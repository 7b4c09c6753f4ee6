"""Splitting a tree of the item-sharing forest into roundable components.

Trees without shattered items split (:func:`simple_split`) into
adjacent-edge pairs (plus at most one leftover single edge) in one pass
over the non-root nodes, deepest first and ties to the smaller agent: a
node whose edge is still unpaired takes it together with its smallest
unpaired sibling's edge if one exists, otherwise with its parent's edge.
The remainder stays a connected tree with the same root and depths, so
a size-z tree yields exactly ``z // 2`` pairs and ``z % 2`` singletons.

Trees with a shattered item instead split around an atom-path
(:func:`atom_path_split`, which holds the peel).  The atom-path's edges
come out as one unit; every remaining component that contains an
atom-path or has an even number of edges survives intact, and every odd
atom-path-free component donates one edge incident to its (unique)
atom-path agent, chosen so that the donation leaves only even-size
pieces.  The donated edges attach to the atom-path, at most one per path
agent, forming an expanded atom-path.  The survivors are split in turn,
depth first.

A split builds its tree's index (``graph._TreeIndex``) once, reads it at
every peel, and drops it on return: kept on the trees of a 120-agent
instance, its ~450 containers moved the garbage collector's full passes
into the pipeline's own calls.  A donation reads the peel's walk of its
region and the index's parent edges: it counts subtree sizes, and walks
nothing again.

:func:`split_tree` is the entry point: it picks the splitter, and alone
fixes the component order that every certificate records.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop
from itertools import count

from .graph import AtomPath, Edge, GraphError, Tree, _TreeIndex
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


def _pairs(index: _TreeIndex, nodes: list[int]) -> list[Pair | SingleEdge]:
    """The pairs, and single edge, of one atom-path-free piece of a tree.

    ``nodes`` are the piece's nodes, its root first; the index gives each
    other node's edge and depth.  A piece's depths differ from the tree's by
    one constant, so ordering its nodes by the tree's depths orders them by
    their own.
    """
    parent, depth = index.parent, index.depth
    # node -> its edge to its parent; node -> its children not yet paired
    outgoing = {v: parent[v] for v in nodes[1:]}
    live: dict[int, set[int]] = defaultdict(set)
    for v, e in outgoing.items():
        live[e.head].add(v)
    done: set[int] = set()
    left = len(outgoing)
    out: list[Pair | SingleEdge] = []
    for v in sorted(outgoing, key=lambda v: (-depth[v], v)):
        if v in done:
            continue
        own = outgoing[v]
        if left == 1:
            out.append(SingleEdge(own))
            break
        parent_node = own.head
        siblings = live[parent_node]
        siblings.discard(v)
        if siblings:
            mate_node = min(siblings)
            siblings.discard(mate_node)
        elif parent_node in outgoing:
            # the parent's edge goes with it and the parent leaves the piece
            mate_node = parent_node
            live[outgoing[parent_node].head].discard(parent_node)
        else:
            # parent is the root and v its only child, impossible with two
            # or more edges left
            raise GraphError("simple split lost track of the tree shape")
        done.add(mate_node)
        out.append(Pair(own, outgoing[mate_node], middle=parent_node))
        left -= 2
    return out


def simple_split(tree: Tree) -> list[Pair | SingleEdge]:
    """Split an atom-path-free tree into edge pairs plus <= 1 single edge."""
    index = _TreeIndex(tree)
    if index.paths:
        raise SplitError("tree contains an atom-path; use atom_path_split")
    return _pairs(index, [tree.root, *index.parent])


def choose_attachment(index: _TreeIndex, nodes: list[int], contact: int) -> Edge:
    """Pick the donated edge of an odd atom-path-free region at its path agent.

    ``nodes`` are the region's nodes, its root first and each node after
    its parent, and ``contact`` is the region's path agent.  Returns an
    edge incident to ``contact`` whose removal leaves an even number of
    edges on each side; ties go to the smallest item index, then tail.
    One pass over ``nodes``, from the last, counts each node's subtree in
    the region.  A child's edge leaves its subtree on the far side, so it
    qualifies when that subtree has an odd node count; so does the
    contact's own edge to its parent, when the contact is not the region's
    root and its subtree is odd, since the region has an even node count.
    That count also guarantees a candidate.
    """
    parent = index.parent
    size = dict.fromkeys(nodes, 1)
    for v in reversed(nodes[1:]):
        size[parent[v].head] += size[v]
    candidates = [parent[c] for c in index.children[contact] if size.get(c, 0) % 2]
    if contact != nodes[0] and size[contact] % 2:
        candidates.append(parent[contact])
    return min(candidates, key=lambda e: (e.item, e.tail))


def atom_path_split(tree: Tree) -> list[Component]:
    """The components of a tree with a shattered item, in canonical order.

    The tree is peeled one atom-path at a time, depth first: a piece's
    atom-path with the smallest item index leaves as the core of an
    expanded atom-path, and the piece falls into one region per path agent.
    Regions come in the order of their smallest agents.  A region with an
    atom-path, or an even number of edges, stays whole and is split in
    full, in turn, after the expanded atom-path; an odd atom-path-free one
    donates the edge :func:`choose_attachment` picks to the expanded
    atom-path, and its two even pieces follow, in the order of their
    smallest agents.  Atom-path-free pieces split as in :func:`simple_split`.

    A peel walks the regions side by side until one is left: the largest,
    never walked.  It keeps the piece's label, its node count less the
    others', and the piece's heaps of agents and of shattered items, pruned
    of moved entries when read.  So a peel costs at most twice the nodes of
    its smaller regions, and a node is walked again only once its piece has
    at least halved, however deep the atom-paths nest.
    """
    index = _TreeIndex(tree)
    if not index.paths:
        raise SplitError("tree has no atom-path; use simple_split")
    paths, children = index.paths, index.children
    bottom = {path.agents[0]: item for item, path in paths.items()}
    cut: set[int] = set()  # tails of the edges peeled or donated
    label: dict[int, int] = {}  # node -> its piece's label, 0 until it moves
    labels = count(1)

    def walk(root: int) -> list[int]:
        """The nodes of ``root``'s piece, ``root`` first."""
        nodes = [root]
        for v in nodes:
            nodes.extend([c for c in children[v] if c not in cut])
        return nodes

    def walk_all_but_largest(roots: tuple[int, ...]) -> list[list[int] | None]:
        """Each root's piece as :func:`walk` gives it, one node per piece in
        turn, until one piece is left unfinished; that one is ``None``."""
        walks = [[root] for root in roots]
        seen = [0] * len(roots)
        live = range(len(roots))
        while len(live) > 1:
            for i in live:
                nodes = walks[i]
                nodes.extend([c for c in children[nodes[seen[i]]] if c not in cut])
                seen[i] += 1
            live = [i for i in live if seen[i] < len(walks[i])]
        if live:
            walks[live[0]] = None
        return walks

    out: list[Component] = []
    # a piece to peel is (root, node count, label, agents, shattered items),
    # its heaps pruned at the top; an atom-path-free piece waits as its
    # finished components
    stack: list = [(tree.root, len(tree.nodes), 0, list(tree.nodes), list(paths))]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            out.extend(entry)
            continue
        root, rest, piece, agents, items = entry
        path = paths[heappop(items)]
        cut.update(path.agents[:-1])
        roots = path.agents[:-1] + (root,)
        regions = []
        for contact, region_root, nodes in zip(
            path.agents, roots, walk_all_but_largest(roots)
        ):
            if nodes is None:
                largest = (contact, region_root)
                continue
            moved = next(labels)
            label.update(dict.fromkeys(nodes, moved))
            own = [bottom[v] for v in nodes[1:] if v in bottom]
            heapify(own)
            heap = nodes.copy()
            heapify(heap)
            regions.append((heap[0], contact, region_root, len(nodes), moved, heap, own, nodes))
            rest -= len(nodes)
        if rest:
            # the largest region reads what is left of the piece's heaps
            while label.get(agents[0], 0) != piece:
                heappop(agents)
            while items and label.get(paths[items[0]].agents[0], 0) != piece:
                heappop(items)
            regions.append((agents[0], *largest, rest, piece, agents, items, None))
        regions.sort(key=lambda region: region[0])
        attachments = []
        good: list = []
        for _, contact, region_root, n, moved, heap, own, nodes in regions:
            if own:
                good.append((region_root, n, moved, heap, own))
                continue
            if n == 1:
                continue
            if nodes is None:
                nodes = walk(region_root)
            if n % 2 == 1:
                good.append(_pairs(index, nodes))
                continue
            donated = choose_attachment(index, nodes, contact)
            attachments.append((contact, donated))
            cut.add(donated.tail)
            far = walk(donated.tail)
            far_set = set(far)
            near = [v for v in nodes if v not in far_set]
            for side in sorted((far, near), key=min):
                if len(side) > 1:
                    good.append(_pairs(index, side))
        attachments.sort(key=lambda attached: attached[0])
        out.append(ExpandedAtomPath(path, tuple(attachments)))
        stack.extend(reversed(good))
    return out


def split_tree(tree: Tree) -> list[Component]:
    """A tree's components in their canonical order.

    A tree in which some item labels two or more edges has an atom-path
    and yields its :func:`atom_path_split`: the expanded atom-path first,
    then the split of each remaining piece in turn, depth first.  Any
    other tree yields its :func:`simple_split`, an edgeless one nothing.
    The test reads only the edges' items; the splitter indexes the tree.
    """
    if not tree.size:
        return []
    if len({e.item for e in tree.edges}) < tree.size:
        return atom_path_split(tree)
    return simple_split(tree)
