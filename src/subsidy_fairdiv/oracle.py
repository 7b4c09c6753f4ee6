"""Ground truth for the rounding pipeline: brute force and generators.

The brute-force rounder enumerates every feasible assignment of the
fractional items (each to one of its sharers) and returns a true
minimum-subsidy integral allocation.  The pipeline can never beat it and
must never exceed its own certificate bound, which brackets the pipeline
from both sides on any instance small enough to enumerate.  Loads and
shares are integers over one common denominator, so each combination
costs integer additions only.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

from .fbta import fractional_items
from .model import (
    CHORES,
    KINDS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    compute_subsidies,
)

DEFAULT_CAP = 1 << 20

UNIFORM = "uniform"
CORRELATED = "correlated"
DISTRIBUTIONS = (UNIFORM, CORRELATED)


class EnumerationCapExceeded(ModelError):
    """The assignment space is larger than the configured cap."""


def brute_force_rounding(
    inst: Instance,
    alloc: FractionalAllocation,
    cap: int = DEFAULT_CAP,
) -> tuple[IntegralAllocation, SubsidyVector]:
    """Minimum-total-subsidy rounding by exhaustive enumeration.

    Considers every assignment of each fractional item to one of its
    sharers (whole items stay put).  Ties break to the lexicographically
    smallest assignment vector.
    """
    fracs = fractional_items(alloc)
    space = 1
    for _, sharers in fracs:
        space *= len(sharers)
        if space > cap:
            raise EnumerationCapExceeded(
                f"assignment space exceeds the cap of {cap} combinations"
            )
    # loads and shares as integers over D = lcm_i(q_i * d_i), the lcm of the
    # agents' units (``Instance._units``); gaps are signed by kind, so an
    # agent's subsidy is her gap when it is positive
    rows, units = inst._rows, inst._units
    denominator = lcm(*[unit for _, _, unit in units])
    sign = 1 if inst.kind == CHORES else -1
    scale = [sign * q * (denominator // unit) for q, _, unit in units]
    base_gap = [-sign * share * (denominator // unit) for _, share, unit in units]
    base_owner: list[int | None] = [None] * inst.m
    for e in range(inst.m):
        sharers = alloc.sharers(e)
        if len(sharers) == 1:
            agent = sharers[0]
            base_owner[e] = agent
            base_gap[agent] += scale[agent] * rows[agent][0][e]
    items = [e for e, _ in fracs]
    choices = [
        [(a, scale[a] * rows[a][0][e]) for a in sharers] for e, sharers in fracs
    ]
    best_total: int | None = None
    best_combo: tuple[tuple[int, int], ...] | None = None
    for combo in itertools.product(*choices):
        gap = list(base_gap)
        for agent, added in combo:
            gap[agent] += added
        total = sum([g for g in gap if g > 0])
        if best_total is None or total < best_total:
            best_total = total
            best_combo = combo
    owner = list(base_owner)
    if best_combo is not None:
        for e, (o, _) in zip(items, best_combo):
            owner[e] = o
    allocation = IntegralAllocation(tuple(o for o in owner if o is not None))
    if allocation.m != inst.m:
        raise ModelError("fractional allocation does not cover every item")
    return allocation, compute_subsidies(inst, allocation)


def gen_random_instance(
    n: int,
    m: int,
    kind: str = CHORES,
    seed: int = 0,
    dist: str = UNIFORM,
    denominator: int = 10,
    force_ido: bool = False,
) -> Instance:
    """Deterministic random instance on an exact rational grid.

    Weights are integers from 1 to 9, normalized to sum to one exactly.
    Costs are drawn from the grid q/denominator.  ``uniform`` draws each
    entry independently; ``correlated`` perturbs a shared base row by at
    most 2 grid steps, clamped to [0, 1].  With ``force_ido`` each row is
    sorted, so the instance is identical-ordering by construction.
    """
    if n < 1:
        raise ModelError(f"need at least one agent, got n={n}")
    if m < 0:
        raise ModelError(f"item count must be non-negative, got m={m}")
    if kind not in KINDS:
        raise ModelError(f"kind must be one of {KINDS}, got {kind!r}")
    if dist not in DISTRIBUTIONS:
        raise ModelError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    if denominator < 1:
        raise ModelError("denominator must be positive")
    rng = random.Random(f"{n}|{m}|{kind}|{dist}|{denominator}|{force_ido}|{seed}")
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    weights = tuple(Fraction(w, total) for w in raw)
    rows = []
    base = [rng.randint(0, denominator) for _ in range(m)]
    for _ in range(n):
        if dist == UNIFORM:
            row = [Fraction(rng.randint(0, denominator), denominator) for _ in range(m)]
        else:
            row = [
                Fraction(
                    min(max(b + rng.randint(-2, 2), 0), denominator), denominator
                )
                for b in base
            ]
        if force_ido:
            row.sort()
        rows.append(tuple(row))
    return Instance(kind=kind, weights=weights, costs=tuple(rows))
