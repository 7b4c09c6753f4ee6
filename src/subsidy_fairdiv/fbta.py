"""Fractional bid-and-take: continuous greedy WPROP allocation.

Items are consumed in the canonical (non-decreasing) order.  Each item is
continuously given to the active agent whose selection key is best; the
moment an agent's bundle reaches her proportional share she turns
inactive and the remainder of the item passes to the next chosen agent,
her *successor*.  A run records only these hand-offs, its
:class:`AllocationTrace`; they are all the item-sharing forest is built
from.

Selection keys, chores:

``normalized`` (default)
    minimize ``c_i(e) / c_i(M)``.  This is the rule with the completion
    guarantee: some active agent can always absorb what is left, so the
    output is a complete fractional WPROP allocation on every valid
    instance.

``raw_cost``
    minimize ``c_i(e)``.  A simpler greedy variant; it can paint itself
    into a corner (all agents exactly filled with items left over), in
    which case :class:`StuckError` is raised.  Kept because its runs are
    useful reference fixtures; not used by the allocation pipeline.

Goods use only the symmetric ``normalized`` rule (maximize
``v_i(e)/v_i(M)``) and hand all remaining items to the last active agent.
:func:`fbta` checks its input, then runs the unchecked core
``_bid_and_take`` on the instance's integer rows; the pipeline calls that
core on the reduced rows it builds and then lets go.

Agents with an all-zero row have share zero and an undefined ratio; they
participate with key 0 and never turn inactive, so for chores they soak
up anything nobody else may take, at zero cost and zero subsidy.

Each agent's remaining capacity is an integer numerator over an integer
denominator in her unit (``Instance._units``).  The denominator is 1 until
she takes the rest of a split item, and is reduced by ``gcd`` only after
such a take, so a whole take is one integer comparison and subtraction.
A ``Fraction`` is built only at a split, for the leaving agent's piece and
for the rest of the item, and there are at most ``n - 1`` splits per run.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .ido import is_ido
from .model import (
    CHORES,
    GOODS,
    ONE,
    FractionalAllocation,
    Instance,
    ModelError,
    require_valid,
)

NORMALIZED = "normalized"
RAW_COST = "raw_cost"


class FBTAError(ModelError):
    """Precondition failure for a bid-and-take run."""


class StuckError(FBTAError):
    """Every agent reached her share with items left (raw_cost rule only)."""


@dataclass(frozen=True)
class SuccessorRecord:
    """``successor`` took over the remainder of ``item`` from ``agent``."""

    agent: int
    successor: int
    item: int


@dataclass(frozen=True)
class AllocationTrace:
    """The hand-offs of a run, in the order they happened.

    An agent has a successor record iff she turned inactive strictly
    before the item she was taking was fully consumed and another agent
    then took a positive piece of it; an agent hands off at most once.
    """

    kind: str
    n: int
    m: int
    successors: tuple[SuccessorRecord, ...]


def _bid_and_take(
    inst: Instance,
    rows: tuple[tuple[tuple[int, ...], int], ...],
    selection: str,
) -> tuple[FractionalAllocation, AllocationTrace]:
    """Bid-and-take on the instance's integer ``rows``, its kind and units, unchecked.

    The caller guarantees a valid IDO instance and a known selection rule,
    as :func:`fbta` checks.  The pipeline hands in reduced rows it then lets go.
    """
    n, m = len(rows), len(rows[0][0]) if rows else 0
    units = inst._units
    goods = inst.kind == GOODS
    # With agent a's row as integers r_a over its denominator d_a, her key
    # for item e is r_a[e] / den_a for keys[a] = (r_a, den_a).  Normalized,
    # c_a(e) / c_a(M) = r_a[e] / R_a with R_a = sum(r_a), the units' share
    # p_a * R_a over p_a, so d_a cancels; a degenerate row (R_a = 0) is all
    # zeros and keeps key 0 / 1.  Raw cost, c_a(e) = r_a[e] / d_a.  Goods
    # take the largest key: over negated denominators the ratios order in
    # reverse, so one strict ``<`` picks the best key of either kind, ties to
    # the lower index.
    sign = -1 if goods else 1
    if selection == RAW_COST:
        keys = [(ints, sign * d) for ints, d in rows]
    else:
        totals = (share // w.numerator for (_, share, _), w in zip(units, inst.weights))
        keys = [(ints, sign * (total or 1)) for (ints, _), total in zip(rows, totals)]
    # in agent a's unit item e costs q_a * r_a[e]; her capacity (share minus
    # load) is capacity[a] / over[a] in that unit, and over[a] leaves 1 only
    # once she takes the rest of a split item
    scale = [q for q, _, _ in units]
    capacity = [share for _, share, _ in units]
    over = [1] * n
    active = list(range(n))
    columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
    successors: list[SuccessorRecord] = []

    def take(agent: int, item: int, fraction: Fraction, inactivated: bool) -> None:
        nonlocal pending
        if fraction.numerator > 0:
            columns[item].append((agent, fraction))
            if pending is not None:
                successors.append(SuccessorRecord(pending, agent, item))
                pending = None
            if inactivated:
                pending = agent

    j = 0
    while j < m:
        pending = None
        z = ONE
        while True:
            if not active:
                raise StuckError(
                    f"all agents reached their share with item {j} unfinished; "
                    f"the {selection!r} selection rule cannot complete this instance"
                )
            # the best key; ``active`` is ascending, so ties go to the lower index
            i = active[0]
            row, best_den = keys[i]
            best_num = row[j]
            for a in active:
                row, den = keys[a]
                if row[j] * best_den < best_num * den:
                    i, best_num, best_den = a, row[j], den
            cost = scale[i] * best_num
            # z * cost against capacity[i] / over[i], over over[i] * z_den
            z_num, z_den = z.as_integer_ratio()
            need = z_num * cost * over[i]
            have = capacity[i] * z_den
            if need > have:
                fraction = Fraction(capacity[i], over[i] * cost)
                take(i, j, fraction, inactivated=True)
                z -= fraction
                active.remove(i)
                if goods and len(active) == 1:
                    # lone active agent absorbs everything that is left
                    only = active[0]
                    take(only, j, z, inactivated=False)
                    for rest in range(j + 1, m):
                        columns[rest].append((only, ONE))
                    j = m
                    break
            else:
                if z_den == 1:
                    capacity[i] = have - need
                else:
                    left, den = have - need, over[i] * z_den
                    g = gcd(left, den)
                    capacity[i], over[i] = left // g, den // g
                take(i, j, z, inactivated=False)
                j += 1
                break

    # takes reach an item in take order; columns list agents by index
    allocation = FractionalAllocation._from_columns(
        n, tuple(tuple(sorted(column)) for column in columns)
    )
    if not allocation.is_complete():
        raise FBTAError("bid-and-take left an item partially allocated")
    return allocation, AllocationTrace(inst.kind, n, m, tuple(successors))


def fbta(
    inst: Instance, selection: str = NORMALIZED
) -> tuple[FractionalAllocation, AllocationTrace]:
    """Check the instance is valid and IDO and the rule known; run bid-and-take.

    Returns a complete fractional allocation with ``c_i(x_i) <= share_i``
    (chores) or ``v_i(x_i) >= share_i`` (goods) for every agent and at
    most ``n - 1`` fractional items, plus the hand-offs.  Both checks read
    a kept verdict, which a reduced instance carries from the reduction,
    so on one neither scans its rows.
    """
    require_valid(inst)
    if not is_ido(inst):
        raise FBTAError("instance is not in canonical non-decreasing order")
    if selection != NORMALIZED and (selection != RAW_COST or inst.kind != CHORES):
        raise FBTAError(f"unknown selection rule {selection!r} for {inst.kind}")
    return _bid_and_take(inst, inst._rows, selection)


def fractional_items(
    alloc: FractionalAllocation,
) -> list[tuple[int, tuple[int, ...]]]:
    """Items shared by two or more agents, with their sharers.

    Returned in item order; sharers in agent order.
    """
    return [
        (e, alloc.sharers(e))
        for e, column in enumerate(alloc.columns)
        if len(column) >= 2
    ]
