"""Seeded workloads, the per-instance work, and the benchmark's own answer checks.

Instances are generated here, from the workload name, the run's seed and the
instance index, and reach the library only as ``Instance`` values or as
instance-document text.  The checks recompute every bound from the original
instance with this file's own ``Fraction`` sums; they do not trust the
certificate.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable

CHORES = "chores"
GOODS = "goods"
UNIFORM = "uniform"
CORRELATED = "correlated"


@dataclass(frozen=True)
class Shape:
    """Generator parameters of one instance."""

    n: int
    m: int
    kind: str
    dist: str
    grid: int
    max_weight: int


@dataclass(frozen=True)
class Workload:
    name: str
    # every run completes instances 0 .. prefix-1 whatever the time; the
    # digests, the result counts and the traced sweeps cover exactly these
    prefix: int
    shape: Callable[[int], Shape]
    oracle: bool


def _small_oracle_shape(k: int) -> Shape:
    n = 2 + k % 9
    return Shape(
        n=n,
        m=n + (7 * k) % (21 - n),
        kind=(CHORES, GOODS)[k % 2],
        dist=(UNIFORM, CORRELATED)[(k // 2) % 2],
        grid=10,
        max_weight=9,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "agent_heavy",
            prefix=4,
            shape=lambda k: Shape(120, 240, CHORES, UNIFORM, 10, 9),
            oracle=False,
        ),
        Workload(
            "item_heavy",
            prefix=3,
            shape=lambda k: Shape(30, 900, GOODS, CORRELATED, 997, 10**6),
            oracle=False,
        ),
        Workload("small_oracle", prefix=64, shape=_small_oracle_shape, oracle=True),
    )
}


def generate(model: ModuleType, workload: Workload, seed: int, k: int):
    """Instance ``k`` of the workload under ``seed``, as a library ``Instance``.

    Weights are positive integers normalized to sum to one; costs lie on the
    grid q/grid.  ``uniform`` draws each entry independently, ``correlated``
    moves a shared base row by at most two grid steps, clamped to [0, 1].
    """
    s = workload.shape(k)
    rng = random.Random(f"{workload.name}|{seed}|{k}")
    raw = [rng.randint(1, s.max_weight) for _ in range(s.n)]
    total = sum(raw)
    weights = tuple(Fraction(w, total) for w in raw)
    base = [rng.randint(0, s.grid) for _ in range(s.m)]
    rows = []
    for _ in range(s.n):
        if s.dist == UNIFORM:
            steps = [rng.randint(0, s.grid) for _ in range(s.m)]
        else:
            steps = [min(max(b + rng.randint(-2, 2), 0), s.grid) for b in base]
        rows.append(tuple(Fraction(q, s.grid) for q in steps))
    return model.Instance(kind=s.kind, weights=weights, costs=tuple(rows))


def allocation_document(result, method: str) -> str:
    """The allocation as ``allocate`` emits it (no decimal rendering)."""
    cert = result.certificate
    doc = {
        "kind": result.instance.kind,
        "n": result.instance.n,
        "m": result.instance.m,
        "method": method,
        "owner": list(result.allocation.owner),
        "subsidies": [str(s) for s in result.subsidies.amounts],
        "total_subsidy": str(result.subsidies.total),
        "global_bound": str(cert.global_bound),
        "bound_holds": cert.holds,
    }
    if cert.strong_bound is not None:
        doc["strong_bound"] = str(cert.strong_bound)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class Outcome:
    """What one instance produced; ``emitted`` is what the digest covers."""

    instance: object
    tree: object
    emitted: bytes
    baseline: object = None
    optimum: Fraction | None = None
    cap_exceeded: bool = False
    round_trip: bool = True


def work(mods: dict[str, ModuleType], workload: Workload, inst, text: str) -> Outcome:
    """The timed library calls for one instance.

    Every call goes through a module attribute looked up at call time, so an
    installed tracer sees it.
    """
    rounding = mods["rounding"]
    if not workload.oracle:
        result = rounding.run_pipeline(inst)
        emitted = (
            allocation_document(result, "tree") + result.certificate.to_json()
        ).encode()
        return Outcome(inst, result, emitted)
    model, oracle = mods["model"], mods["oracle"]
    doc = model.serialize_instance(inst)
    parsed = model.parse_instance(doc)
    result = rounding.run_pipeline(parsed)
    emitted = allocation_document(result, "tree") + result.certificate.to_json()
    baseline = rounding.run_pipeline(parsed, method="baseline")
    emitted += allocation_document(baseline, "baseline")
    out = Outcome(
        inst, result, b"", baseline=baseline, round_trip=parsed == inst and doc == text
    )
    try:
        _, optimum = oracle.brute_force_rounding(result.ido_instance, result.fractional)
    except oracle.EnumerationCapExceeded:
        out.cap_exceeded = True
    else:
        out.optimum = optimum.total
        emitted += f"optimum {optimum.total}\n"
    out.emitted = emitted.encode()
    return out


def global_bound(kind: str, n: int, method: str) -> Fraction:
    """n/3 - 1/6 for chores, n/3 for goods, (n-1)/2 for baseline rounding."""
    if n <= 1:
        return Fraction(0)
    if method == "baseline":
        return Fraction(n - 1, 2)
    return Fraction(n, 3) - Fraction(1, 6) if kind == CHORES else Fraction(n, 3)


def _gaps(inst, owner) -> list[Fraction]:
    """Per agent, bundle cost minus share (chores) or share minus bundle value (goods)."""
    bundles = [Fraction(0)] * inst.n
    for e, agent in enumerate(owner):
        bundles[agent] += inst.costs[agent][e]
    gaps = []
    for i, row in enumerate(inst.costs):
        share = inst.weights[i] * sum(row, Fraction(0))
        gaps.append(bundles[i] - share if inst.kind == CHORES else share - bundles[i])
    return gaps


def _subsidy_total(inst, owner) -> Fraction:
    """Minimum total subsidy of an integral allocation, from first principles."""
    return sum((g for g in _gaps(inst, owner) if g > 0), Fraction(0))


def _check_allocation(inst, result, method: str) -> list[str]:
    owner = list(result.allocation.owner)
    amounts = list(result.subsidies.amounts)
    if len(owner) != inst.m or any(not 0 <= o < inst.n for o in owner):
        return [f"{method}: owner vector is not a partition of the {inst.m} items"]
    if len(amounts) != inst.n or any(s < 0 for s in amounts):
        return [f"{method}: subsidy vector malformed"]
    bad = [
        f"{method}: agent {i} short by {gap - amounts[i]}"
        for i, gap in enumerate(_gaps(inst, owner))
        if gap > amounts[i]
    ]
    bound = global_bound(inst.kind, inst.n, method)
    if sum(amounts, Fraction(0)) > bound:
        bad.append(f"{method}: total subsidy exceeds {bound}")
    if not result.certificate.holds:
        bad.append(f"{method}: certificate does not hold")
    return bad


def check(workload: Workload, out: Outcome) -> list[str]:
    """Every violation found in one instance's outputs; empty when correct."""
    inst = out.instance
    bad = _check_allocation(inst, out.tree, "tree")
    if workload.oracle:
        if not out.round_trip:
            bad.append("instance document did not round-trip")
        bad += _check_allocation(inst, out.baseline, "baseline")
        if out.optimum is not None and rounded_gap(out) < 0:
            bad.append(f"optimum {out.optimum} above the pipeline's rounded total")
    return bad


def rounded_gap(out: Outcome) -> Fraction:
    """Pipeline rounded total minus the brute-force optimum over the same rounding."""
    return _subsidy_total(out.tree.ido_instance, out.tree.ido_allocation.owner) - out.optimum


def result_counts(outcomes: list[Outcome]) -> dict[str, float]:
    """Deterministic per-layer counts read from the results of the prefix.

    Additive counts are per instance; maxima are over the prefix.
    """
    k = len(outcomes)
    sums: dict[str, float] = dict.fromkeys(
        (
            "fbta.fractional_items.count",
            "graph.edges",
            "graph.trees_nonempty",
            "graph.atom_path_trees",
            "split.components.single_edge",
            "split.components.pair",
            "split.components.expanded_atom_path",
            "rounding.trees_emitted_threshold",
            "oracle.assignments_enumerated",
            "oracle.cap_exceeded",
        ),
        0,
    )
    max_edges = 0
    max_bits = 0
    subsidy = Fraction(0)
    bound = Fraction(0)
    gaps = []
    for out in outcomes:
        result = out.tree
        cert = result.certificate
        sharer_counts = _sharer_counts(result.fractional)
        sums["fbta.fractional_items.count"] += len(sharer_counts)
        sums["graph.edges"] += len(result.graph.edges)
        for tree in cert.trees:
            if tree.size:
                sums["graph.trees_nonempty"] += 1
            sums["graph.atom_path_trees"] += tree.has_atom_path
            sums["rounding.trees_emitted_threshold"] += (
                getattr(tree, "emitted", None) == "threshold"
            )
            max_edges = max(max_edges, tree.size)
        for comp in cert.components:
            key = f"split.components.{comp.kind}"
            if key in sums:
                sums[key] += 1
        values = list(result.subsidies.amounts) + [c.local_subsidy for c in cert.components]
        max_bits = max([max_bits] + [v.denominator.bit_length() for v in values])
        subsidy += sum(result.subsidies.amounts, Fraction(0))
        bound += global_bound(out.instance.kind, out.instance.n, "tree")
        sums["oracle.cap_exceeded"] += out.cap_exceeded
        if out.optimum is not None:
            gaps.append(rounded_gap(out))
            sums["oracle.assignments_enumerated"] += math.prod(sharer_counts)
    counts = {name: value / k for name, value in sums.items()}
    counts["oracle.cap_exceeded"] = sums["oracle.cap_exceeded"]
    counts["graph.max_tree_edges"] = max_edges
    counts["rounding.max_denominator_bits"] = max_bits
    nonempty = sums["graph.trees_nonempty"]
    counts["rounding.threshold_win_ratio"] = (
        sums["rounding.trees_emitted_threshold"] / nonempty if nonempty else 0.0
    )
    counts["rounding.subsidy_to_bound"] = float(subsidy / bound) if bound else 0.0
    counts["oracle.gap_mean"] = float(sum(gaps, Fraction(0)) / len(gaps)) if gaps else 0.0
    return counts


def _sharer_counts(alloc) -> list[int]:
    """Number of sharers of each fractional item (two or more holders)."""
    counts = (sum(1 for row in alloc.shares if row[e] > 0) for e in range(alloc.m))
    return [q for q in counts if q >= 2]
