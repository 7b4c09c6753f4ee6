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
agent-level clamping inside the component.  Summing components
over-counts only safely (the positive part is subadditive), so the
certificate's component sum dominates the true total subsidy of the
rounded allocation, which in turn dominates the total after lifting back
to the original item order.  A rounding only records its bound, and
:class:`RoundingCertificate` records any broken one as a failure.

One kernel, :class:`_Pricer`, prices every rounding: given an item set,
its sharers and a base per agent, it puts each agent's clamped gap over
one common denominator, so each rounding scores as an integer and only a
winner's score becomes a ``Fraction``.  A component's base is each
touched agent's fractional load over its items, which gives the local
subsidy.  The per-tree emit choice and the brute-force oracle use each
agent's share minus the items she holds whole, found in one pass over
the items, which gives her true subsidy: each tree emits plain
thresholding instead of its split assignment when its agents' true
subsidies sum to strictly less under it.  The emitted allocation goes
through :func:`integralize` once, and its subsidies are that same base
less the cost of each shared item it emits (:func:`_rounded_subsidies`).

Rounding is the only step of :func:`run_pipeline` that depends on the
method.  Validation, the reduction, bid-and-take, the forest, the
fractional items and that base form one stage per instance
(:func:`_fractional_stage`), computed on its first run and shared by every
later run, of either method, so comparing the tree rounding with the
per-item baseline costs one fractional stage, not two.  The stage keeps no
n×m object of its own: the reduction and the lift read the rank orders
validation sorted, and bid-and-take, the base and the rounding read single
entries through ``Instance._reads``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .fbta import AllocationTrace, fbta, fractional_items
from .graph import ItemSharingGraph, Tree, build_graph, trees
from .ido import lift_allocation, reduce_to_ido
from .model import (
    CHORES,
    ZERO,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    _document,
    _field_state,
    compute_subsidies,
    exact_sum,
    frac,
    rational_text,
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
    """Clamped gaps of one item set's roundings, as integers over one ``D``.

    Over agent ``a``'s unit ``q_a * d_a`` (``Instance._units``) item ``e``
    costs ``u_a(e) = q_a * r_a[e]``.  Her base ``N_a / M_a`` is her
    fractional load over the items (``M_a`` the lcm of her fractions'
    denominators), so her clamped gap is her part of a local subsidy; or,
    given ``base`` (:func:`_whole_base`), her share minus the items she
    holds whole (``M_a = 1``), so it is her true subsidy.  Over
    ``D = lcm_a(M_a * q_a * d_a)`` her signed gap is ``offset[a]`` plus the
    ``gain[e][a]`` of each item she gets (chores: ``-N_a`` and ``u_a(e)``
    scaled to ``D``; goods negate both), so every rounding scores as an
    integer and only the winner's score becomes a ``Fraction``.
    """

    def __init__(
        self,
        inst: Instance,
        alloc: FractionalAllocation,
        items: Iterable[int],
        base: Sequence[int] | None = None,
    ) -> None:
        entry, units = inst._entry, inst._units
        # item -> sharer -> u_a(e); agent -> (N_a, M_a)
        costs: dict[int, dict[int, int]] = {}
        loads: dict[int, tuple[int, int]] = {}
        for e in items:
            costs[e] = {}
            for a, held in alloc.columns[e]:
                costs[e][a] = u = units[a][0] * entry(a, e)
                if base is not None:
                    loads[a] = (base[a], 1)
                    continue
                x_num, x_den = held.as_integer_ratio()
                if a in loads:
                    num, den = loads[a]
                    both = lcm(den, x_den)
                    loads[a] = (num * (both // den) + x_num * u * (both // x_den), both)
                else:
                    loads[a] = (x_num * u, x_den)
        self.denominator = lcm(*[den * units[a][2] for a, (_, den) in loads.items()])
        sign = 1 if inst.kind == CHORES else -1
        self.offset = {
            a: -sign * num * (self.denominator // (den * units[a][2]))
            for a, (num, den) in loads.items()
        }
        self.gain = {
            e: {a: sign * u * (self.denominator // units[a][2]) for a, u in worth.items()}
            for e, worth in costs.items()
        }

    def term(self, agent: int, gain: int) -> int:
        """The agent's clamped gap, over ``D``, when she gets items of this gain."""
        gap = self.offset[agent] + gain
        return gap if gap > 0 else 0

    def score(self, assignment: dict[int, int]) -> int:
        """The rounding's summed clamped gaps, over ``D``."""
        gap = dict(self.offset)
        for item, owner in assignment.items():
            held = self.gain[item]
            if owner not in held:
                raise RoundingError(f"item {item} rounded to non-sharer {owner}")
            gap[owner] += held[owner]
        return sum([g for g in gap.values() if g > 0])

    def price(self, score: int) -> Fraction:
        return Fraction(score, self.denominator)


def _whole_base(inst: Instance, alloc: FractionalAllocation) -> tuple[int, ...]:
    """Per agent, her share minus the items she holds whole, over her unit.

    Each entry is read through ``Instance._entry``, so a reduced instance
    builds no rows for it.
    """
    entry, units = inst._entry, inst._units
    base = [share for _, share, _ in units]
    for e, column in enumerate(alloc.columns):
        if len(column) == 1:
            a = column[0][0]
            base[a] -= units[a][0] * entry(a, e)
    return tuple(base)


def _rounded_subsidies(
    inst: Instance, base: Sequence[int], assignment: dict[int, int]
) -> SubsidyVector:
    """:func:`compute_subsidies` of the rounding that gives each shared item
    to ``assignment[item]`` and leaves every whole item where it is.

    Each agent's gap is her :func:`_whole_base` less the cost of each shared
    item she gets, over her unit, negated for chores: only the shared
    items' entries are read.
    """
    entry, units = inst._entry, inst._units
    rest = list(base)
    for e, a in assignment.items():
        rest[a] -= units[a][0] * entry(a, e)
    sign = -1 if inst.kind == CHORES else 1
    return SubsidyVector(tuple([
        Fraction(gap, unit) if (gap := sign * r) > 0 else ZERO
        for r, (_, _, unit) in zip(rest, units)
    ]))


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

    def __post_init__(self) -> None:
        # the certificate adds these with ``exact_sum``, which reads Fractions
        object.__setattr__(self, "local_subsidy", frac(self.local_subsidy))
        object.__setattr__(self, "bound", frac(self.bound))

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
    """The item rounded to its :func:`threshold_owner`, priced; ``bound`` only recorded."""
    owner = threshold_owner(alloc, item)
    assignment = {item: owner}
    local = local_subsidy(inst, alloc, assignment)
    return _component(kind, assignment, f"threshold->{owner}", local, bound)


def round_single_edge(
    inst: Instance, alloc: FractionalAllocation, comp: SingleEdge
) -> ComponentRounding:
    """Threshold rounding of a lone shared item; records, not enforces, bound 1/2."""
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
    """Exact best of the four endpoint assignments; records, not enforces, bound 2/3.

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
    """Exact best rounding of an expanded atom-path; records, not enforces, (k + h) / 3.

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
        keep, give = (pricer.gain[edge.item][a] for a in (path_agent, other))
        best = []
        for core_load in (0, pricer.gain[core][path_agent]):
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
    assignment when the tree's agents' true subsidies sum to strictly less
    under it.  Both are scored on one :class:`_Pricer` of the tree's items,
    based on each agent's share minus the items she holds whole; that is
    exact per tree because every fractional item's sharers lie in one tree
    and trees share no agents.  Either way the split components carry the
    certificate.
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
    per edge, plus 1/6 for a single edge, so the certificate's check that
    the component bounds sum to the tree's bound also catches a single
    edge split off where none belongs.
    """
    # looked up on every call, so that wrappers installed on this module's
    # functions from outside see each component rounding
    rounders = {
        SingleEdge: round_single_edge,
        Pair: round_pair,
        ExpandedAtomPath: round_expanded_atom_path,
    }
    split = split_tree(tree)
    components = [rounders[type(comp)](inst, alloc, comp) for comp in split]
    has_ap = any(type(comp) is ExpandedAtomPath for comp in split)
    bound = Fraction(tree.size, 3)
    if not has_ap and tree.size % 2 == 1:
        bound += Fraction(1, 6)
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

    where each component's subsidy is at most its own bound, each tree's
    component bounds sum exactly to the tree's bound, the global bound is
    n/3 - 1/6 for chores (n/3 for goods), the strengthening (n-1)/3
    applies whenever the forest has fewer than n - 1 edges or some item
    is shared by three or more agents, and the baseline method is bounded
    by (n-1)/2 instead.  :meth:`_checks` is the one place that compares a
    rounding with its bound.
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

        The message is a template for the values.  ``_failed`` judges them
        once, and :meth:`holds`, :meth:`failures` and :meth:`to_doc` read
        it; :meth:`holds` never formats a value.
        """
        for c in self.components:
            yield (
                c.local_subsidy <= c.bound,
                "{} on items {}: {} > {}",
                (c.kind, c.items, c.local_subsidy, c.bound),
            )
        for t in self.trees:
            total = exact_sum([c.bound for c in t.components])
            yield (
                total == t.bound,
                "tree at agent {}: component bounds sum to {}, tree bound is {}",
                (t.root, total, t.bound),
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

    @cached_property
    def _failed(self) -> tuple[tuple[str, tuple], ...]:
        """The ``(message, values)`` of each failed check, kept unformatted."""
        return tuple([(message, values) for ok, message, values in self._checks() if not ok])

    def failures(self) -> list[str]:
        """One message per failed inequality; rationals go through :func:`rational_text`."""
        return [
            message.format(
                *(rational_text(v) if isinstance(v, Fraction) else v for v in values)
            )
            for message, values in self._failed
        ]

    @property
    def holds(self) -> bool:
        return not self._failed

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
        return _document(self.to_doc())


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
    """Everything the full run produced, for callers that want the parts.

    The results of one instance share its fractional stage: their
    ``ido_instance``, ``fractional``, ``trace`` and ``graph`` are the same
    immutable objects, whichever method each one ran.
    """

    instance: Instance
    ido_instance: Instance
    fractional: FractionalAllocation
    trace: AllocationTrace
    graph: ItemSharingGraph
    ido_allocation: IntegralAllocation
    allocation: IntegralAllocation
    subsidies: SubsidyVector
    certificate: RoundingCertificate


def _fractional_stage(inst: Instance) -> tuple:
    """Validate, reduce, allocate fractionally and build the forest, once.

    None of it depends on the rounding method, so the first run of an
    instance keeps ``(reduced instance, fractional allocation, trace,
    graph, forest, fractional items, whole base)`` in the instance's
    ``__dict__``, beside the caches ``cached_property`` keeps, and every
    later run, of either method, reads it there: ``==``, ``hash``,
    ``repr``, pickling and ``dataclasses.replace`` never see it.  The reduced
    instance reads the source's rows through the rank orders validation
    sorted, which the source keeps for the lift, and carries its source's
    verdict and its own IDO verdict, so :func:`fbta` checks it without a
    scan.  A bid-and-take run that scans builds its rows and lets them go,
    a heap run builds none, and :func:`_whole_base` reads through
    ``Instance._reads``, so the stage keeps no n×m object of its own.
    :func:`reduce_to_ido` validates, so an invalid instance raises before
    anything is kept, and raises on every call.
    """
    stage = inst.__dict__.get("_fractional_stage")
    if stage is None:
        ido_inst = reduce_to_ido(inst)
        alloc, trace = fbta(ido_inst)
        base = _whole_base(ido_inst, alloc)
        graph = build_graph(trace)
        stage = inst.__dict__["_fractional_stage"] = (
            ido_inst, alloc, trace, graph,
            tuple(trees(graph)), tuple(fractional_items(alloc)), base,
        )
    return stage


def run_pipeline(inst: Instance, method: str = TREE) -> PipelineResult:
    """Reduce, allocate fractionally, round, lift, and certify.

    Everything before rounding comes from :func:`_fractional_stage`,
    computed on an instance's first run and shared by every later one, so
    the two methods on one instance reduce, allocate and build the forest
    once, and their results hold the same reduced instance, fractional
    allocation, trace and graph.  The lift reads the rank orders the
    reduction permuted by, kept on ``inst``.
    """
    if method not in (TREE, BASELINE):
        raise RoundingError(f"unknown rounding method {method!r}")
    ido_inst, alloc, trace, graph, forest, fracs, base = _fractional_stage(inst)
    tree_roundings: tuple[TreeRounding, ...] = ()
    if method == TREE:
        # every fractional item's sharers lie in one tree and trees share no
        # agents, so a tree's assignment moves only its own agents' subsidies
        assignment: dict[int, int] = {}
        rounded_trees = []
        for tree in forest:
            rounding = round_tree(ido_inst, alloc, tree)
            split = _merged_assignment(rounding.components)
            threshold = {item: threshold_owner(alloc, item) for item in split}
            # emit the exactly-cheaper of the certified split assignment and
            # plain thresholding; the split components keep carrying the
            # bound either way
            pricer = _Pricer(ido_inst, alloc, split, base)
            if pricer.score(threshold) < pricer.score(split):
                rounding = replace(rounding, emitted="threshold")
                split = threshold
            assignment.update(split)
            rounded_trees.append(rounding)
        tree_roundings = tuple(rounded_trees)
        components = tuple(c for t in tree_roundings for c in t.components)
    else:
        components = tuple(
            _threshold_component(
                ido_inst, alloc, item, "threshold_item",
                Fraction(len(sharers) - 1, len(sharers)),
            )
            for item, sharers in fracs
        )
        assignment = _merged_assignment(components)
    ido_allocation = integralize(alloc, assignment)
    rounded = _rounded_subsidies(ido_inst, base, assignment)
    allocation = lift_allocation(inst, ido_allocation)
    subsidies = compute_subsidies(inst, allocation)
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
        fractional=alloc,
        trace=trace,
        graph=graph,
        ido_allocation=ido_allocation,
        allocation=allocation,
        subsidies=subsidies,
        certificate=certificate,
    )
