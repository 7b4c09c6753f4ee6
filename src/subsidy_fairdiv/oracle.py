"""Ground truth for the rounding pipeline: brute force and generators.

The brute-force rounder enumerates every feasible assignment of the
fractional items (each to one of its sharers) and returns a true
minimum-subsidy integral allocation.  The pipeline can never beat it and
must never exceed its own certificate bound, which brackets the pipeline
from both sides on any instance small enough to enumerate.  Every
combination is priced by the rounding kernel (``rounding._Pricer``) over
all fractional items, based on each agent's share minus the items she
holds whole, so each combination costs integer additions into one list,
and the winner's subsidies are that base less the costs of the shared
items it assigns (``rounding._rounded_subsidies``): the entries read are
those of the shared items and of each item held whole, and the rows of a
reduced instance are never built.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .fbta import fractional_items
from .model import (
    CHORES,
    KINDS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
)
from .rounding import _Pricer, _rounded_subsidies, _whole_base, integralize

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
    if alloc.n != inst.n or alloc.m != inst.m:
        raise ModelError(
            f"allocation is {alloc.n} agents by {alloc.m} items, "
            f"instance is {inst.n} by {inst.m}"
        )
    fracs = fractional_items(alloc)
    space = 1
    for _, sharers in fracs:
        space *= len(sharers)
        if space > cap:
            raise EnumerationCapExceeded(
                f"assignment space exceeds the cap of {cap} combinations"
            )
    base = _whole_base(inst, alloc)
    pricer = _Pricer(inst, alloc, [e for e, _ in fracs], base)
    # one integer list per combination, a slot per sharer
    slot = {a: i for i, a in enumerate(pricer.offset)}
    offset = list(pricer.offset.values())
    choices = [[(slot[a], pricer.gain[e][a]) for a in sharers] for e, sharers in fracs]
    best_total: int | None = None
    best_combo: tuple[tuple[int, int], ...] = ()
    for combo in itertools.product(*choices):
        gap = list(offset)
        for s, gain in combo:
            gap[s] += gain
        total = sum([g for g in gap if g > 0])
        if best_total is None or total < best_total:
            best_total = total
            best_combo = combo
    agents = list(slot)
    assignment = {e: agents[s] for (e, _), (s, _) in zip(fracs, best_combo)}
    return integralize(alloc, assignment), _rounded_subsidies(inst, base, assignment)


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
    sorted, so the instance is identical-ordering by construction.  Each
    grid point drawn is one ``Fraction``, shared by every entry that draws it.
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
    point = functools.cache(functools.partial(Fraction, denominator=denominator))
    base = [rng.randint(0, denominator) for _ in range(m)]
    for _ in range(n):
        if dist == UNIFORM:
            row = [point(rng.randint(0, denominator)) for _ in range(m)]
        else:
            row = [point(min(max(b + rng.randint(-2, 2), 0), denominator)) for b in base]
        if force_ido:
            row.sort()
        rows.append(tuple(row))
    return Instance(kind=kind, weights=weights, costs=tuple(rows))
