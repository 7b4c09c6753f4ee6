"""One plain-``Fraction`` reference per exact step of the pipeline.

Each ``reference_*`` function recomputes one step from what a reader of
the documents sees: an instance's ``kind``, ``weights`` and ``costs``, a
fractional allocation's ``columns`` (or ``shares``), an integral
allocation's ``owner`` and the edges of a tree or component.  None reads a
cache or a private helper of the package, and none calls the package code
whose output it checks: loads, shares and subsidies are plain ``Fraction``
sums here, never the integer units the package computes in.
``tests/test_reference.py`` holds that rule with a parse of this file.

The tree split has one too: the split as it was before trees kept an
index, which finds the smallest atom-path, every component of the rest
and every donated piece with a fresh search of the edges, once per peel.
Its search, :func:`reference_components`, is also the reference of the
forest: an undirected search of the edges, one component at a time.

The documents the package writes have a reference too: the standard
library's ``json.dumps``, which the package's own writer must match byte
for byte.

Alongside are the instance strategy the property tests draw from and the
explicit ``EDGE_CASES`` every property tries.
"""
import itertools
import json
from collections import defaultdict
from fractions import Fraction

from hypothesis import example, strategies as st

from subsidy_fairdiv import CHORES, GOODS, Instance
from subsidy_fairdiv.fbta import RAW_COST, StuckError, fbta
from subsidy_fairdiv.graph import AtomPath, GraphError, Tree, build_graph, trees
from subsidy_fairdiv.ido import reduce_to_ido
from subsidy_fairdiv.split import ExpandedAtomPath, Pair, SingleEdge, SplitError

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Loads, shares and subsidies
# ---------------------------------------------------------------------------

def total_cost(inst, agent):
    """c_i(M): the agent's cost (or value) for the whole item set."""
    return sum(inst.costs[agent], ZERO)


def share(inst, agent):
    """The agent's weighted proportional share ``w_i * c_i(M)``."""
    return inst.weights[agent] * total_cost(inst, agent)


def agent_load(inst, alloc, agent):
    """c_i(x_i): cost (or value) of the agent's fractional bundle."""
    return sum(
        (x * inst.costs[agent][e]
         for e, column in enumerate(alloc.columns) for a, x in column if a == agent),
        ZERO,
    )


def bundle_cost(inst, alloc, agent):
    """c_i(X_i): cost (or value) of the agent's bundle in an integral allocation."""
    return sum((inst.costs[agent][e] for e, o in enumerate(alloc.owner) if o == agent), ZERO)


def subsidy(inst, agent, load):
    """What the agent needs on top of a bundle of this cost (or value)."""
    gap = load - share(inst, agent) if inst.kind == CHORES else share(inst, agent) - load
    return max(gap, ZERO)


def sharers(alloc, item):
    return [a for a, _ in alloc.columns[item]]


def largest_holder(alloc, item):
    """Threshold rounding: the sharer with the largest fraction, ties to the lower index."""
    return min(alloc.columns[item], key=lambda held: (-held[1], held[0]))[0]


def attached_agent(eap, path_agent):
    """The far end of the edge attached at ``path_agent``, or None."""
    for agent, edge in eap.attachments:
        if agent == path_agent:
            return edge.head if edge.tail == agent else edge.tail
    return None


# ---------------------------------------------------------------------------
# Reduction and lift
# ---------------------------------------------------------------------------

def reference_is_ido(inst):
    return all(row[e] <= row[e + 1] for row in inst.costs for e in range(len(row) - 1))


def reference_reduce(inst):
    """Sort each row on ``(cost, index)``, goods on ``(-cost, index)``: (reduced rows, sigma)."""
    sign = 1 if inst.kind == CHORES else -1
    rows, sigma = [], []
    for row in inst.costs:
        sigma.append(tuple(sorted(range(inst.m), key=lambda e: (sign * row[e], e))))
        rows.append(tuple(sorted(row)))
    return tuple(rows), tuple(sigma)


def reference_lift(inst, ido_owner):
    """Each slot's owner takes her favorite remaining item by a min/max scan."""
    m = inst.m
    order = range(m) if inst.kind == CHORES else range(m - 1, -1, -1)
    remaining = set(range(m))
    owner = [0] * m
    for slot in order:
        agent = ido_owner[slot]
        row = inst.costs[agent]
        if inst.kind == CHORES:
            pick = min(remaining, key=lambda e: (row[e], e))
        else:
            pick = max(remaining, key=lambda e: (row[e], -e))
        remaining.remove(pick)
        owner[pick] = agent
    return tuple(owner)


# ---------------------------------------------------------------------------
# Bid-and-take
# ---------------------------------------------------------------------------

def reference_bid_and_take(inst, selection):
    """(columns, successors) of the run, or ``StuckError``.

    Keys are ``Fraction``s (``c_i(e) / c_i(M)``, or ``c_i(e)`` under the
    raw-cost rule), best first and ties to the lower index; capacities
    are ``Fraction``s too.
    """
    n, m = inst.n, inst.m
    goods = inst.kind == GOODS

    def key(agent, item):
        value = inst.costs[agent][item]
        if selection != RAW_COST:
            total = total_cost(inst, agent)
            value = value / total if total else ZERO
        return (-value if goods else value), agent

    capacity = [share(inst, i) for i in range(n)]
    active = list(range(n))
    columns = [[] for _ in range(m)]
    successors = []
    pending = None

    def take(agent, item, fraction, inactivated):
        nonlocal pending
        if fraction > 0:
            columns[item].append((agent, fraction))
            if pending is not None:
                successors.append((pending, agent, item))
                pending = None
            if inactivated:
                pending = agent

    j = 0
    while j < m:
        pending = None
        left = ONE
        while True:
            if not active:
                raise StuckError("every agent reached her share with items left")
            i = min(active, key=lambda a: key(a, j))
            cost = inst.costs[i][j]
            if left * cost > capacity[i]:
                fraction = capacity[i] / cost
                take(i, j, fraction, inactivated=True)
                left -= fraction
                active.remove(i)
                if goods and len(active) == 1:
                    only = active[0]
                    take(only, j, left, inactivated=False)
                    for rest in range(j + 1, m):
                        take(only, rest, ONE, inactivated=False)
                    j = m
                    break
            else:
                capacity[i] -= left * cost
                take(i, j, left, inactivated=False)
                j += 1
                break
    return tuple(tuple(sorted(c)) for c in columns), successors


# ---------------------------------------------------------------------------
# Subsidies, component pricing and rounding
# ---------------------------------------------------------------------------

def reference_compute_subsidies(inst, owner):
    return tuple(
        subsidy(inst, i, sum((inst.costs[i][e] for e, o in enumerate(owner) if o == i), ZERO))
        for i in range(inst.n)
    )


def reference_local_subsidy(inst, alloc, assignment):
    """Per agent, the signed change of her load over the rounded items, clamped at 0."""
    delta = {}
    for item, owner in assignment.items():
        if owner not in sharers(alloc, item):
            raise ValueError(f"item {item} rounded to non-sharer {owner}")
        for agent, held in alloc.columns[item]:
            u = inst.costs[agent][item]
            change = (ONE - held) * u if agent == owner else -held * u
            delta[agent] = delta.get(agent, ZERO) + change
    if inst.kind == CHORES:
        return sum((d for d in delta.values() if d > 0), ZERO)
    return sum((-d for d in delta.values() if d < 0), ZERO)


def cheapest(inst, alloc, options):
    """(scheme, assignment, local) of the least local subsidy, ties to the first."""
    local, scheme, assignment = min(
        ((reference_local_subsidy(inst, alloc, a), s, a) for s, a in options),
        key=lambda scored: scored[0],
    )
    return scheme, assignment, local


def reference_single_edge(inst, alloc, comp):
    owner = largest_holder(alloc, comp.edge.item)
    assignment = {comp.edge.item: owner}
    return f"threshold->{owner}", assignment, reference_local_subsidy(inst, alloc, assignment)


def reference_pair(inst, alloc, comp):
    e1, e2 = comp.first.item, comp.second.item
    out1, out2 = comp.outer
    mid = comp.middle
    return cheapest(inst, alloc, [
        ("LL", {e1: out1, e2: mid}),
        ("RR", {e1: mid, e2: out2}),
        ("LR", {e1: out1, e2: out2}),
        ("RL", {e1: mid, e2: mid}),
    ])


def reference_expanded_atom_path(inst, alloc, eap):
    """Each core placement, each attached edge to the endpoint whose rounding
    (with the core placed) costs less, ties to the smaller index."""
    core = eap.path.item
    attached = [
        (edge.item, sorted((path_agent, attached_agent(eap, path_agent))))
        for path_agent, edge in eap.attachments
    ]

    def place(owner):
        assignment = {core: owner}
        for item, ends in attached:
            assignment[item] = min(
                ends,
                key=lambda c: reference_local_subsidy(inst, alloc, {core: owner, item: c}),
            )
        return f"core->{owner}", assignment

    return cheapest(inst, alloc, [place(o) for o in sorted(eap.path.agents)])


REFERENCE_COMPONENTS = {
    "single_edge": reference_single_edge,
    "pair": reference_pair,
    "expanded_atom_path": reference_expanded_atom_path,
}


def reference_brute_force(inst, alloc):
    """(owner, subsidies) of the least total subsidy, ties to the first vector enumerated."""
    fracs = [(e, sharers(alloc, e)) for e in range(alloc.m) if len(alloc.columns[e]) >= 2]
    base = [column[0][0] if len(column) == 1 else None for column in alloc.columns]
    best_total = best_owner = None
    for combo in itertools.product(*(s for _, s in fracs)):
        owner = list(base)
        for (e, _), o in zip(fracs, combo):
            owner[e] = o
        total = sum(reference_compute_subsidies(inst, owner), ZERO)
        if best_total is None or total < best_total:
            best_total, best_owner = total, tuple(owner)
    return best_owner, reference_compute_subsidies(inst, best_owner)


def reference_emit(inst, alloc, forest):
    """(emitted per tree, reduced owner): a tree emits threshold rounding when
    its agents' subsidies, from the items they hold whole plus the tree's
    assignment, sum to strictly less under it than under the split.  The
    split assignment is the reference rounding of each reference component."""
    owner = [column[0][0] if len(column) == 1 else None for column in alloc.columns]
    whole = [ZERO] * inst.n
    for e, o in enumerate(owner):
        if o is not None:
            whole[o] += inst.costs[o][e]

    def tree_subsidy(tree, assignment):
        load = {agent: whole[agent] for agent in tree.nodes}
        for item, o in assignment.items():
            load[o] += inst.costs[o][item]
        return sum((subsidy(inst, a, x) for a, x in load.items()), ZERO)

    emitted = []
    for tree in forest:
        split = {}
        for comp in reference_split_tree(tree):
            split.update(REFERENCE_COMPONENTS[comp.kind](inst, alloc, comp)[1])
        threshold = {item: largest_holder(alloc, item) for item in split}
        if tree_subsidy(tree, threshold) < tree_subsidy(tree, split):
            emitted.append("threshold")
            chosen = threshold
        else:
            emitted.append("split")
            chosen = split
        for item, o in chosen.items():
            owner[item] = o
    return emitted, tuple(owner)


# ---------------------------------------------------------------------------
# Tree splitting: every peel searches the rest of the tree again
# ---------------------------------------------------------------------------

def has_atom_path(edges):
    """Whether some item labels two or more of the edges."""
    return len({e.item for e in edges}) < len(edges)


def reference_find_atom_paths(tree):
    """One atom-path per shattered item of the tree, by item index."""
    by_item = defaultdict(list)
    for e in tree.edges:
        by_item[e.item].append(e)
    return [
        atom_path_of(item, edges)
        for item, edges in sorted(by_item.items())
        if len(edges) >= 2
    ]


def atom_path_of(item, edges):
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


def reference_simple_split(tree):
    """Split an atom-path-free tree into edge pairs plus <= 1 single edge."""
    if has_atom_path(tree.edges):
        raise SplitError("tree contains an atom-path; use atom_path_split")
    # node -> its edge to its parent; node -> its children not yet paired
    outgoing = {}
    live = defaultdict(set)
    for e in tree.edges:
        outgoing[e.tail] = e
        live[e.head].add(e.tail)
    depths = {tree.root: 0}
    order = [tree.root]
    for v in order:
        for c in live[v]:
            depths[c] = depths[v] + 1
            order.append(c)
    done = set()
    left = tree.size
    out = []
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


def reference_atom_path_split(tree):
    """Split a tree with a shattered item around one atom-path.

    The atom-path with the smallest item index becomes the core of the
    expanded atom-path; the returned subtrees each contain an atom-path
    or have even size.
    """
    paths = reference_find_atom_paths(tree)
    if not paths:
        raise SplitError("tree has no atom-path; use simple_split")
    path = paths[0]
    path_agents = set(path.agents)
    rest = [e for e in tree.edges if e.item != path.item]
    attachments = []
    good = []
    for comp in reference_components(rest):
        if has_atom_path(comp.edges) or comp.size % 2 == 0:
            good.append(comp)
            continue
        contacts = sorted(path_agents.intersection(comp.nodes))
        if len(contacts) != 1:
            raise GraphError(
                f"odd component touches the atom-path at {len(contacts)} agents"
            )
        contact = contacts[0]
        donated = reference_choose_attachment(comp.edges, contact)
        attachments.append((contact, donated))
        for piece in reference_components(e for e in comp.edges if e != donated):
            if piece.size % 2 != 0:
                raise GraphError("donation left an odd piece; parity broken")
            good.append(piece)
    attachments.sort()
    seen_agents = [a for a, _ in attachments]
    if len(seen_agents) != len(set(seen_agents)):
        raise GraphError("a path agent collected two attachments")
    return ExpandedAtomPath(path, tuple(attachments)), good


def reference_split_tree(tree):
    """A tree's components in their canonical order.

    A tree with an atom-path yields the expanded atom-path of
    :func:`reference_atom_path_split`, then the split of each returned
    subtree in turn; any other tree yields its :func:`reference_simple_split`,
    an edgeless one nothing.  Subtrees wait on a stack, not in Python
    frames, so nesting depth is unbounded.
    """
    out = []
    stack = [tree]
    while stack:
        tree = stack.pop()
        if has_atom_path(tree.edges):
            eap, subtrees = reference_atom_path_split(tree)
            out.append(eap)
            stack.extend(reversed(subtrees))
        elif tree.size:
            out.extend(reference_simple_split(tree))
    return out


def reference_choose_attachment(edges, contact):
    """The per-edge walk: one component search per candidate edge."""
    candidates = []
    for e in edges:
        if contact not in (e.tail, e.head):
            continue
        far = e.head if e.tail == contact else e.tail
        rest = [x for x in edges if x != e]
        far_side = next(t for t in reference_components(rest, (far,)) if far in t.nodes)
        if far_side.size % 2 == 0:
            candidates.append(e)
    return min(candidates, key=lambda e: (e.item, e.tail))


def reference_components(edges, nodes=()):
    """Connected components of a forest's edges as rooted trees.

    Every agent in ``nodes`` appears, as a one-node tree when no edge
    touches it; other agents appear only through their edges.  Trees are
    ordered by their smallest agent.  A component's root is its unique
    agent without an outgoing edge; a component without exactly one, or
    with an edge more than a tree has, is rejected.
    """
    edges = tuple(edges)
    neighbors = {v: [] for v in nodes}
    for e in edges:
        neighbors.setdefault(e.tail, []).append(e.head)
        neighbors.setdefault(e.head, []).append(e.tail)
    label = {}
    groups = []
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
    members = [[] for _ in groups]
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


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def reference_document(doc):
    """The canonical text of a document: two-space indent, sorted keys, a final LF."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_document(inst):
    """The instance's document as plain JSON values, every rational as ``str``."""
    doc = {
        "kind": inst.kind,
        "weights": [str(w) for w in inst.weights],
        "costs": [[str(c) for c in row] for row in inst.costs],
    }
    if inst.agent_names is not None:
        doc["agent_names"] = list(inst.agent_names)
    if inst.item_names is not None:
        doc["item_names"] = list(inst.item_names)
    return doc


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

# goods lone-agent path: agent 0 fills up on item 1 and agent 1 takes the rest
LONE_AGENT = Instance(GOODS, ("1/2", "1/2"), (("1", "1", "1"), ("1", "1", "1")))
EDGE_CASES = (
    LONE_AGENT,
    Instance(CHORES, ("1/2", "1/2"), ((), ())),
    Instance(GOODS, ("1",), (("1/2", "1/2", "0"),)),
    Instance(CHORES, ("1/3", "1/3", "1/3"), (("1/2",), ("1/2",), ("1/2",))),
    Instance(GOODS, ("1/4", "3/4"), (("0", "0"), ("0", "0"))),
    Instance(CHORES, ("1/3", "2/3"), (("0", "0"), ("1/2", "1/2"))),
    Instance(CHORES, ("1/3", "2/3"), (("0", "0", "0"), ("1/3", "1/2", "1/6"))),
    Instance(
        CHORES,
        (Fraction(999_983, 1_999_949), Fraction(999_966, 1_999_949)),
        (("1/2", "1/3", "1/4"), ("2/3", "1/6", "1/2")),
    ),
    Instance(
        GOODS,
        (Fraction(999_983, 1_999_949), Fraction(999_966, 1_999_949)),
        (("1/2", "1/3", "1/3"), ("2/3", "1/3", "1/2")),
    ),
)

GRIDS = (2, 3, 4, 6)


@st.composite
def instances(draw, kinds=(CHORES, GOODS), max_n=6, max_m=8):
    """Tie-heavy instances: every row on one grid of 1/2, 1/3, 1/4 or 1/6, or
    each row on its own; half the time some all-zero rows; m = 0, m < n and
    n = 1; half the time weights with denominators near 10^6.  One draw in
    ten is an instance of ``EDGE_CASES``, for tests whose other draws rule
    out explicit examples."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([inst for inst in EDGE_CASES if inst.kind in kinds]))
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    if draw(st.booleans()):
        raw = [draw(st.integers(10**6 - 50, 10**6)) for _ in range(n)]
    else:
        raw = [draw(st.integers(1, 9)) for _ in range(n)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    shared_grid = draw(st.sampled_from((None,) + GRIDS))
    zero_rows = draw(st.booleans())
    costs = []
    for _ in range(n):
        grid = shared_grid or draw(st.sampled_from(GRIDS))
        if zero_rows and draw(st.integers(0, 4)) == 0:
            costs.append((ZERO,) * m)
        else:
            costs.append(tuple(Fraction(draw(st.integers(0, grid)), grid) for _ in range(m)))
    return Instance(kind, weights, tuple(costs))


def with_edge_cases(test):
    """Try every instance of ``EDGE_CASES`` as an explicit example."""
    for inst in EDGE_CASES:
        test = example(inst)(test)
    return test


def fractional_run(inst):
    """(reduced instance, fractional allocation, forest) of the pipeline's run."""
    ido_inst = reduce_to_ido(inst)
    alloc, trace = fbta(ido_inst)
    return ido_inst, alloc, trees(build_graph(trace))


def recosted(inst, values):
    """The instance's kind and weights with a cost ``v / 2`` for each ``v`` of ``values``."""
    return Instance(
        inst.kind,
        inst.weights,
        tuple(tuple(Fraction(next(values), 2) for _ in range(inst.m)) for _ in range(inst.n)),
    )
