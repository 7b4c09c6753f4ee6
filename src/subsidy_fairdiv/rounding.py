"""Rounding fractional allocations to integral ones with bound certificates.

Every component cut out of the item-sharing forest is rounded by exact
minimization over a small candidate set that contains each scheme used
in the worst-case analysis, so the analysis' per-component bounds carry
over to the exact minimum:

* single edge: threshold rounding, subsidy at most 1/2;
* pair of adjacent edges: best of the four endpoint assignments,
  subsidy at most 2/3;
* expanded atom-path with k core edges and h attachments: best placement
  of the shared item over the k+1 path agents, with each attached edge
  rounded to whichever endpoint is exactly cheaper, subsidy at most
  (k + h) / 3.

Per-component subsidies are accounted by :func:`local_subsidy`, with
agent-level clamping inside the component.  Each component is priced
once: its touched agents' fractional loads are computed once, every
candidate rounding scores as an integer over one common denominator, and
only the winner's score becomes a ``Fraction``.  Summing components
over-counts only safely (the positive part is subadditive), so the
certificate's component sum dominates the true total subsidy of the
rounded allocation, which in turn dominates the total after lifting back
to the original item order.  True subsidies come only from
:func:`compute_subsidies`: each tree emits plain thresholding instead of
its split assignment when its agents' true subsidies under the
all-threshold allocation sum to strictly less than under the all-split
one, and each agent's rounded subsidy is its entry under the one its tree
emits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .fbta import NORMALIZED, AllocationTrace, bid_and_take, fractional_items
from .graph import ItemSharingGraph, Tree, build_graph, has_atom_path, trees
from .ido import RankProfile, lift_allocation, reduce_to_ido
from .model import (
    CHORES,
    ZERO,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    _field_state,
    compute_subsidies,
    exact_sum,
    rational_text,
    require_valid,
)
from .split import ExpandedAtomPath, Pair, SingleEdge, split_tree

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)

TREE = "tree"
BASELINE = "baseline"


class RoundingError(ModelError):
    """Rounding precondition failure."""


def threshold_owner(alloc: FractionalAllocation, item: int) -> int:
    """The sharer holding the largest fraction of the item; ties to the lower index."""
    return max(alloc.columns[item], key=lambda held: (held[1], -held[0]))[0]


class _Pricer:
    """Local subsidies of one component's roundings, as integers over one ``D``.

    Over agent ``a``'s unit ``q_a * d_a`` (``Instance._units``) item ``e``
    costs ``u_a(e) = q_a * r_a[e]``.  Her fractional load over the
    component's items is ``L_a = sum(x_a(e) * u_a(e)) = N_a / M_a``, with
    ``M_a`` the lcm of her fractions' denominators, computed once.  A
    rounding that gives her the items worth ``I_a`` changes her load by
    ``(I_a - L_a) / (q_a * d_a)``.  Over ``D = lcm_a(M_a * q_a * d_a)`` that
    is ``I_a * A_a - B_a`` with ``A_a = D / (q_a * d_a)`` and
    ``B_a = N_a * D / (M_a * q_a * d_a)``, so every rounding scores as an
    integer and only the winner's score becomes a ``Fraction``.
    """

    def __init__(
        self, inst: Instance, alloc: FractionalAllocation, items: Iterable[int]
    ) -> None:
        rows, units = inst._rows, inst._units
        self.sign = 1 if inst.kind == CHORES else -1
        # item -> sharer -> u_a(e); agent -> (N_a, M_a)
        costs: dict[int, dict[int, int]] = {}
        loads: dict[int, tuple[int, int]] = {}
        for e in items:
            costs[e] = {}
            for a, held in alloc.columns[e]:
                costs[e][a] = u = units[a][0] * rows[a][0][e]
                x_num, x_den = held.as_integer_ratio()
                if a in loads:
                    num, den = loads[a]
                    both = lcm(den, x_den)
                    loads[a] = (num * (both // den) + x_num * u * (both // x_den), both)
                else:
                    loads[a] = (x_num * u, x_den)
        self.denominator = lcm(*[den * units[a][2] for a, (_, den) in loads.items()])
        # agent -> B_a; item -> sharer -> u_a(e) * A_a
        self.base = {
            a: num * (self.denominator // (den * units[a][2]))
            for a, (num, den) in loads.items()
        }
        self.worth = {
            e: {a: u * (self.denominator // units[a][2]) for a, u in worth.items()}
            for e, worth in costs.items()
        }

    def term(self, agent: int, worth: int) -> int:
        """The agent's clamped change, over ``D``, when she gets items of this worth."""
        gap = self.sign * (worth - self.base[agent])
        return gap if gap > 0 else 0

    def score(self, assignment: dict[int, int]) -> int:
        """The local subsidy of the rounding, over ``D``."""
        worth = dict.fromkeys(self.base, 0)
        for item, owner in assignment.items():
            held = self.worth[item]
            if owner not in held:
                raise RoundingError(f"item {item} rounded to non-sharer {owner}")
            worth[owner] += held[owner]
        return sum(self.term(a, w) for a, w in worth.items())

    def price(self, score: int) -> Fraction:
        return Fraction(score, self.denominator)


def local_subsidy(
    inst: Instance,
    alloc: FractionalAllocation,
    assignment: dict[int, int],
) -> Fraction:
    """Exact subsidy increase caused by rounding the given items.

    For each agent touched by the component, the signed change of her
    load (chores) or her value (goods) relative to the fractional
    position is accumulated over the component's items, then clamped at
    the agent level: agents pushed above their fractional load need the
    excess refunded, agents relieved need nothing.
    """
    pricer = _Pricer(inst, alloc, assignment)
    return pricer.price(pricer.score(assignment))


@dataclass(frozen=True)
class ComponentRounding:
    """One rounded component: its assignment, exact cost, and bound."""

    kind: str
    items: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]
    scheme: str
    local_subsidy: Fraction
    bound: Fraction

    def to_doc(self) -> dict:
        """The component's entry in the certificate document."""
        return {
            "kind": self.kind,
            "items": list(self.items),
            "assignment": {str(i): a for i, a in self.assignment},
            "scheme": self.scheme,
            "local_subsidy": rational_text(self.local_subsidy),
            "bound": rational_text(self.bound),
        }


def _component(kind, assignment, scheme, local, bound) -> ComponentRounding:
    if local > bound:
        raise RoundingError(
            f"{kind} component exceeded its bound: {local} > {bound}"
        )
    return ComponentRounding(
        kind=kind,
        items=tuple(sorted(assignment)),
        assignment=tuple(sorted(assignment.items())),
        scheme=scheme,
        local_subsidy=local,
        bound=bound,
    )


def _cheapest(pricer: _Pricer, kind, options, bound) -> ComponentRounding:
    """The ``(scheme, assignment)`` option with the least local subsidy.

    Ties go to the first option listed.
    """
    score, scheme, assignment = min(
        ((pricer.score(a), s, a) for s, a in options),
        key=lambda scored: scored[0],
    )
    return _component(kind, assignment, scheme, pricer.price(score), bound)


def _threshold_component(
    inst: Instance, alloc: FractionalAllocation, item: int, kind: str, bound: Fraction
) -> ComponentRounding:
    """The item rounded to its :func:`threshold_owner`, priced and held to ``bound``."""
    owner = threshold_owner(alloc, item)
    assignment = {item: owner}
    local = local_subsidy(inst, alloc, assignment)
    return _component(kind, assignment, f"threshold->{owner}", local, bound)


def round_single_edge(
    inst: Instance, alloc: FractionalAllocation, comp: SingleEdge
) -> ComponentRounding:
    """Threshold rounding of a lone shared item; subsidy at most 1/2."""
    item = comp.edge.item
    sharers = alloc.sharers(item)
    if len(sharers) != 2:
        raise RoundingError(
            f"single-edge component expects 2 sharers on item {item}, "
            f"found {len(sharers)}"
        )
    return _threshold_component(inst, alloc, item, "single_edge", HALF)


def round_pair(
    inst: Instance, alloc: FractionalAllocation, comp: Pair
) -> ComponentRounding:
    """Exact best of the four endpoint assignments; subsidy at most 2/3.

    With the two items e1, e2 and the shared middle agent: LL gives e1
    to the far endpoint and e2 to the middle, RR the reverse, LR both to
    the far endpoints, RL both to the middle.
    """
    e1, e2 = comp.first.item, comp.second.item
    if e1 == e2:
        raise RoundingError("pair component carries a shattered item")
    out1, out2 = comp.outer
    mid = comp.middle
    options = [
        ("LL", {e1: out1, e2: mid}),
        ("RR", {e1: mid, e2: out2}),
        ("LR", {e1: out1, e2: out2}),
        ("RL", {e1: mid, e2: mid}),
    ]
    return _cheapest(_Pricer(inst, alloc, (e1, e2)), "pair", options, TWO_THIRDS)


def round_expanded_atom_path(
    inst: Instance, alloc: FractionalAllocation, eap: ExpandedAtomPath
) -> ComponentRounding:
    """Exact best rounding of an expanded atom-path; at most (k + h) / 3.

    The shared core item must go to one of the k+1 path agents.  Given
    that placement, distinct attached edges touch disjoint agent pairs,
    so each one is independently rounded to its exactly-cheaper endpoint.
    The candidate set contains every scheme used in the worst-case
    analysis (threshold placement, placement on the unattached agent,
    biased rounding of attachments, and their complements), hence the
    exact minimum inherits the (k + h) / 3 guarantee.
    """
    k, h = eap.k, eap.h
    if k < 2:
        raise RoundingError(f"atom-path must have at least 2 edges, got {k}")
    if h > k + 1:
        raise RoundingError(f"{h} attachments on {k + 1} path agents")
    core = eap.path.item
    agents = eap.path.agents
    if set(alloc.sharers(core)) != set(agents):
        raise RoundingError("path agents do not match the core item's sharers")
    pricer = _Pricer(inst, alloc, [core] + [edge.item for _, edge in eap.attachments])
    # An attached edge's far endpoint is no path agent and each path agent
    # holds one attachment at most, so only the edge's two endpoints' terms
    # differ between its two roundings, and they depend on the core's
    # placement only through whether it sits on the edge's path agent.  So
    # each edge is ranked twice: core elsewhere, then core on its path agent.
    attached: set[int] = set()
    endpoint: list[tuple[int, int, tuple[int, int]]] = []
    for path_agent, edge in eap.attachments:
        other = edge.head if edge.tail == path_agent else edge.tail
        if set(alloc.sharers(edge.item)) != {path_agent, other}:
            raise RoundingError("attached edge endpoints do not share its item")
        if path_agent not in agents or other in agents or path_agent in attached:
            raise RoundingError(
                "attached edges must join distinct path agents to agents off the path"
            )
        attached.add(path_agent)
        keep, give = (pricer.worth[edge.item][a] for a in (path_agent, other))
        best = []
        for core_load in (0, pricer.worth[core][path_agent]):
            on_path = pricer.term(path_agent, core_load + keep) + pricer.term(other, 0)
            on_other = pricer.term(path_agent, core_load) + pricer.term(other, give)
            # ties to the endpoint with the smaller index
            best.append(path_agent if (on_path, path_agent) < (on_other, other) else other)
        endpoint.append((edge.item, path_agent, tuple(best)))

    def place(owner: int) -> tuple[str, dict[int, int]]:
        assignment = {core: owner}
        for item, path_agent, best in endpoint:
            assignment[item] = best[owner == path_agent]
        return f"core->{owner}", assignment

    return _cheapest(
        pricer,
        "expanded_atom_path",
        [place(owner) for owner in sorted(agents)],
        Fraction(k + h, 3),
    )


@dataclass(frozen=True)
class TreeRounding:
    """All component roundings of one tree of the forest.

    ``emitted`` names the assignment actually materialized for the tree:
    the bound-certified split assignment, or the per-item threshold
    assignment when the tree's agents' true subsidies
    (:func:`compute_subsidies`) sum to strictly less under it.  The
    comparison reads two whole allocations, all-split and all-threshold,
    and is exact per tree because every fractional item's sharers lie in
    one tree and trees share no agents.  Either way the split components
    carry the certificate.
    """

    root: int
    size: int
    has_atom_path: bool
    bound: Fraction
    components: tuple[ComponentRounding, ...]
    emitted: str = "split"


def round_tree(
    inst: Instance, alloc: FractionalAllocation, tree: Tree
) -> TreeRounding:
    """Round each component of :func:`split_tree`, in its order.

    A tree of z edges containing an atom-path costs at most z/3; an
    atom-path-free tree costs at most z/3 for even z and z/3 + 1/6 for
    odd z (the leftover single edge).  Every component's bound is 1/3
    per edge, plus 1/6 for a single edge, so the one check that the
    component bounds sum to the tree's bound also catches a single edge
    split off where none belongs.
    """
    # looked up on every call, so that wrappers installed on this module's
    # functions from outside see each component rounding
    rounders = {
        SingleEdge: round_single_edge,
        Pair: round_pair,
        ExpandedAtomPath: round_expanded_atom_path,
    }
    components = [
        rounders[type(comp)](inst, alloc, comp) for comp in split_tree(tree)
    ]
    has_ap = has_atom_path(tree.edges)
    bound = Fraction(tree.size, 3)
    if not has_ap and tree.size % 2 == 1:
        bound += Fraction(1, 6)
    total_bound = exact_sum([c.bound for c in components])
    if total_bound != bound:
        raise RoundingError(
            f"component bounds sum to {total_bound}, tree bound is {bound}"
        )
    return TreeRounding(
        root=tree.root,
        size=tree.size,
        has_atom_path=has_ap,
        bound=bound,
        components=tuple(components),
    )


def integralize(
    alloc: FractionalAllocation, assignment: dict[int, int]
) -> IntegralAllocation:
    """Materialize the rounding: assigned items move, whole items stay."""
    owner = []
    for e, column in enumerate(alloc.columns):
        if len(column) == 1:
            owner.append(column[0][0])
        elif e in assignment:
            owner.append(assignment[e])
        else:
            raise RoundingError(f"fractional item {e} has no assignment")
    return IntegralAllocation(tuple(owner))


def _merged_assignment(components) -> dict[int, int]:
    assignment: dict[int, int] = {}
    for comp in components:
        assignment.update(comp.assignment)
    return assignment


@dataclass(frozen=True)
class RoundingCertificate:
    """Machine-checkable record of every subsidy bound, all exact.

    Inequality chain certified (chores; goods mirror it):

        final total <= rounded total <= sum of component subsidies
                    <= sum of component bounds <= global bound

    where the global bound is n/3 - 1/6 for chores (n/3 for goods), the
    strengthening (n-1)/3 applies whenever the forest has fewer than
    n - 1 edges or some item is shared by three or more agents, and the
    baseline method is bounded by (n-1)/2 instead.
    """

    kind: str
    n: int
    m: int
    method: str
    edge_count: int
    fractional_count: int
    has_shattered_item: bool
    trees: tuple[TreeRounding, ...]
    components: tuple[ComponentRounding, ...]
    rounded_subsidies: SubsidyVector
    final_subsidies: SubsidyVector
    global_bound: Fraction
    strong_bound: Fraction | None

    __getstate__ = _field_state

    @cached_property
    def component_subsidy_total(self) -> Fraction:
        return exact_sum([c.local_subsidy for c in self.components])

    @cached_property
    def component_bound_total(self) -> Fraction:
        return exact_sum([c.bound for c in self.components])

    @property
    def rounded_total(self) -> Fraction:
        return self.rounded_subsidies.total

    @property
    def final_total(self) -> Fraction:
        return self.final_subsidies.total

    def _checks(self):
        """Each certified inequality as ``(holds, message, values)``.

        The message is a template for the values; :meth:`holds` reads only
        the exact comparisons and never formats a value.
        """
        for c in self.components:
            yield (
                c.local_subsidy <= c.bound,
                "{} on items {}: {} > {}",
                (c.kind, c.items, c.local_subsidy, c.bound),
            )
        rounded, final = self.rounded_total, self.final_total
        local, bound = self.component_subsidy_total, self.component_bound_total
        yield (
            rounded <= local,
            "rounded total {} exceeds component sum {}",
            (rounded, local),
        )
        yield local <= bound, "component subsidies exceed component bounds", ()
        yield (
            bound <= self.global_bound,
            "component bounds {} exceed the global bound {}",
            (bound, self.global_bound),
        )
        yield (
            final <= rounded,
            "lifted total {} exceeds rounded total {}",
            (final, rounded),
        )
        yield (
            final <= self.global_bound,
            "total subsidy {} exceeds {}",
            (final, self.global_bound),
        )
        if self.strong_bound is not None:
            yield (
                final <= self.strong_bound,
                "total subsidy {} exceeds the strengthened bound {}",
                (final, self.strong_bound),
            )

    def failures(self) -> list[str]:
        """One message per failed inequality; rationals go through :func:`rational_text`."""
        return [
            message.format(
                *(rational_text(v) if isinstance(v, Fraction) else v for v in values)
            )
            for ok, message, values in self._checks()
            if not ok
        ]

    @property
    def holds(self) -> bool:
        return all(ok for ok, _, _ in self._checks())

    def to_doc(self) -> dict:
        # a component listed under its tree and in the flat list is one
        # document in both places
        docs: dict[int, dict] = {}

        def component_doc(c: ComponentRounding) -> dict:
            if id(c) not in docs:
                docs[id(c)] = c.to_doc()
            return docs[id(c)]

        doc = {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "method": self.method,
            "accounting": "agent-clamped exact deltas per component; "
            "cross-component sums over-count only safely",
            "edge_count": self.edge_count,
            "fractional_item_count": self.fractional_count,
            "has_shattered_item": self.has_shattered_item,
            "trees": [
                {
                    "root": t.root,
                    "size": t.size,
                    "has_atom_path": t.has_atom_path,
                    "emitted": t.emitted,
                    "bound": rational_text(t.bound),
                    "components": [component_doc(c) for c in t.components],
                }
                for t in self.trees
            ],
            "components": [component_doc(c) for c in self.components],
            "component_subsidy_total": rational_text(self.component_subsidy_total),
            "component_bound_total": rational_text(self.component_bound_total),
            "rounded_total_subsidy": rational_text(self.rounded_total),
            "final_total_subsidy": rational_text(self.final_total),
            "global_bound": rational_text(self.global_bound),
            "strong_bound": (
                None if self.strong_bound is None else rational_text(self.strong_bound)
            ),
        }
        failures = self.failures()
        doc.update(holds=not failures, failures=failures)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"


def global_bound(kind: str, n: int, method: str) -> Fraction:
    if n <= 1:
        return ZERO
    if method == BASELINE:
        return Fraction(n - 1, 2)
    if kind == CHORES:
        return Fraction(n, 3) - Fraction(1, 6)
    return Fraction(n, 3)


@dataclass(frozen=True)
class PipelineResult:
    """Everything the full run produced, for callers that want the parts."""

    instance: Instance
    ido_instance: Instance
    profile: RankProfile
    fractional: FractionalAllocation
    trace: AllocationTrace
    graph: ItemSharingGraph
    ido_allocation: IntegralAllocation
    allocation: IntegralAllocation
    subsidies: SubsidyVector
    certificate: RoundingCertificate


def run_pipeline(inst: Instance, method: str = TREE) -> PipelineResult:
    """Reduce, allocate fractionally, round, lift, and certify."""
    if method not in (TREE, BASELINE):
        raise RoundingError(f"unknown rounding method {method!r}")
    require_valid(inst)
    ido_inst, profile = reduce_to_ido(inst)
    # the reduction keeps the input valid and makes it IDO, so bid-and-take
    # runs without its own precondition checks
    alloc, trace = bid_and_take(ido_inst, NORMALIZED)
    graph = build_graph(trace)
    forest = trees(graph)
    tree_roundings: tuple[TreeRounding, ...] = ()
    if method == TREE:
        split_roundings = [round_tree(ido_inst, alloc, tree) for tree in forest]
        split = _merged_assignment(c for t in split_roundings for c in t.components)
        threshold = {item: threshold_owner(alloc, item) for item in split}
        split_subsidy, threshold_subsidy = (
            compute_subsidies(ido_inst, integralize(alloc, a)).amounts
            for a in (split, threshold)
        )
        # every fractional item's sharers lie in one tree and trees share no
        # agents, so an agent's rounded subsidy is its entry under whichever
        # assignment its tree emits; agents outside every tree hold whole
        # items only and have equal entries under both
        assignment = dict(split)
        rounded_amounts = list(split_subsidy)
        rounded_trees = []
        for tree, rounding in zip(forest, split_roundings):
            # emit the exactly-cheaper of the certified split assignment
            # and plain thresholding; the split components keep carrying
            # the bound either way
            if sum((threshold_subsidy[a] for a in tree.nodes), ZERO) < sum(
                (split_subsidy[a] for a in tree.nodes), ZERO
            ):
                rounding = replace(rounding, emitted="threshold")
                assignment.update((e.item, threshold[e.item]) for e in tree.edges)
                for a in tree.nodes:
                    rounded_amounts[a] = threshold_subsidy[a]
            rounded_trees.append(rounding)
        tree_roundings = tuple(rounded_trees)
        components = tuple(c for t in tree_roundings for c in t.components)
        ido_allocation = integralize(alloc, assignment)
        rounded = SubsidyVector(tuple(rounded_amounts))
    else:
        components = tuple(
            _threshold_component(
                ido_inst, alloc, item, "threshold_item",
                Fraction(len(sharers) - 1, len(sharers)),
            )
            for item, sharers in fractional_items(alloc)
        )
        ido_allocation = integralize(alloc, _merged_assignment(components))
        rounded = compute_subsidies(ido_inst, ido_allocation)
    allocation = lift_allocation(inst, profile, ido_allocation)
    subsidies = compute_subsidies(inst, allocation)
    fracs = fractional_items(alloc)
    shattered = any(len(sharers) >= 3 for _, sharers in fracs)
    strong = None
    if method == TREE and inst.n >= 2 and (
        len(graph.edges) < inst.n - 1 or shattered
    ):
        strong = Fraction(inst.n - 1, 3)
    certificate = RoundingCertificate(
        kind=inst.kind,
        n=inst.n,
        m=inst.m,
        method=method,
        edge_count=len(graph.edges),
        fractional_count=len(fracs),
        has_shattered_item=shattered,
        trees=tree_roundings,
        components=components,
        rounded_subsidies=rounded,
        final_subsidies=subsidies,
        global_bound=global_bound(inst.kind, inst.n, method),
        strong_bound=strong,
    )
    return PipelineResult(
        instance=inst,
        ido_instance=ido_inst,
        profile=profile,
        fractional=alloc,
        trace=trace,
        graph=graph,
        ido_allocation=ido_allocation,
        allocation=allocation,
        subsidies=subsidies,
        certificate=certificate,
    )
