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
``v_i(e)/v_i(M)``), and the last active agent never turns inactive: she
takes all that is left.  :func:`fbta` is the one bid-and-take function;
the pipeline calls it on the reduced instance, whose carried verdicts
make its checks free.

Selection.  On an IDO instance a chores key ``r_i[e] / den_i`` never falls
as ``e`` grows, so a key read at an earlier item is a lower bound on the
agent's key now.  Chores with more than 16 agents keep the active agents in
a heap of those bounds, as exact integers, and re-read an entry only while
it is on top and stale, through ``Instance._reads``, building no rows.  A
uniform 120×240 run re-reads about 5 agents per item instead of scanning
120.  When agents contend (rows that nearly agree), the first items re-read
many of them, and the run hands the rest to the scan, which cross-multiplies
every active agent's key on integer rows built through ``Instance._reads``
for the run and let go.  A stale goods key bounds the wrong side, so goods
always scan.

Agents with an all-zero row have share zero and an undefined ratio; they
participate with key 0 and never turn inactive, so for chores they soak
up anything nobody else may take, at zero cost and zero subsidy.

Each agent's remaining capacity is an integer numerator over an integer
denominator in her unit (``Instance._units``).  The denominator is 1 until
she takes the rest of a split item, and is reduced by ``gcd`` only after
such a take, so a whole take is one integer comparison and subtraction.
The rest of the item is an integer pair too, in lowest terms.  A whole
take appends the item's column ``((i, ONE),)`` and builds nothing else; a
``Fraction`` is built only at a split, for the leaving agent's piece and
for the last taker's rest, and there are at most ``n - 1`` splits per run.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
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
    validate_instance,
)

NORMALIZED = "normalized"
RAW_COST = "raw_cost"
# Chores select from a heap of lower bounds (see above).  On 120×240
# and 300×600 chores (CPython 3.11, x86-64) one heap re-read costs 440–510 ns
# and one scan entry 45–74 ns, plus 11–13 ns to build the row it reads, so
# the heap pays while it re-reads fewer than one agent in 6–8 per item.  A
# run that re-reads more than ``n * _WINDOW // _SHARE`` entries within its
# first ``_WINDOW`` items hands the rest to the scan.  Every item re-reads at
# least its last taker, so at most ``2 * _SHARE`` agents scan from the start
# (9–16 agents ran 4–16% slower on the heap).
_WINDOW = 4
_SHARE = 8


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


def fbta(
    inst: Instance, selection: str = NORMALIZED
) -> tuple[FractionalAllocation, AllocationTrace]:
    """Bid-and-take on a valid IDO instance, by the ``selection`` rule.

    Returns a complete fractional allocation with ``c_i(x_i) <= share_i``
    (chores) or ``v_i(x_i) >= share_i`` (goods) for every agent and at
    most ``n - 1`` fractional items, plus the hand-offs.  Raises
    :class:`ModelError` on an invalid instance and :class:`FBTAError` on
    one that is not IDO or on an unknown rule.  Both checks read a kept
    verdict, which a reduced instance carries from the reduction, so on
    one neither scans its rows and ``require_valid`` is not called.

    Chores with more than ``2 * _SHARE`` agents pick from a heap of lower
    bounds, read through ``Instance._reads``, and hand the run to the scan
    if their first ``_WINDOW`` items re-read too many agents.  Goods and
    fewer agents scan from the start, on rows built through ``_reads`` for
    the run and let go.  Either way the pick is the same agent.
    """
    if validate_instance(inst):
        require_valid(inst)  # raises, naming every violation
    if not is_ido(inst):
        raise FBTAError("instance is not in canonical non-decreasing order")
    if selection != NORMALIZED and (selection != RAW_COST or inst.kind != CHORES):
        raise FBTAError(f"unknown selection rule {selection!r} for {inst.kind}")
    n, m = inst.n, inst.m
    units = inst._units
    goods = inst.kind == GOODS
    # Agent a's key for item e is r_a[e] / den_a, her row as integers r_a over
    # its denominator d_a.  Normalized, c_a(e) / c_a(M) = r_a[e] / R_a with
    # R_a = sum(r_a), the units' share p_a * R_a over p_a, so d_a cancels; a
    # degenerate row (R_a = 0) is all zeros and keeps key 0 / 1.  Raw cost,
    # c_a(e) = r_a[e] / d_a, d_a the unit q_a * d_a over q_a.
    if selection == RAW_COST:
        dens = [unit // q for q, _, unit in units]
    else:
        dens = [share // w.numerator or 1 for (_, share, _), w in zip(units, inst.weights)]
    # in agent a's unit item e costs q_a * r_a[e]; her capacity (share minus
    # load) is capacity[a] / over[a] in that unit, and over[a] leaves 1 only
    # once she takes the rest of a split item
    scale = [q for q, _, _ in units]
    capacity = [share for _, share, _ in units]
    over = [1] * n
    columns: list[tuple[tuple[int, Fraction], ...]] = []
    successors: list[SuccessorRecord] = []
    heap = None
    if not goods and n > 2 * _SHARE and m:
        # Chores pick from a heap of (key, agent, item read at), the key
        # r_a[e] * big // den_a with big = max(den)^2: two ratios with
        # denominators at most max(den) differ by at least 1 / big unless
        # equal, so keys order exactly as the ratios do, ties included.  An IDO
        # row never falls, so a key read at an earlier item bounds the agent's
        # key now from below, and a top read at this item is the best key,
        # ties to the lower index.  Entries are read through ``Instance._reads``.
        reads = inst._reads
        big = max(dens) ** 2
        heap = [
            (ints[order[0]] * big // den, a, 0)
            for a, ((ints, order), den) in enumerate(zip(reads, dens))
        ]
        heapify(heap)
        active = heap
        stale, budget = 0, n * _WINDOW // _SHARE
    else:
        # the scan; goods take the largest key: over negated denominators the
        # ratios order in reverse, so one strict ``<`` picks the best key
        rows = inst._scaled_rows()
        sign = -1 if goods else 1
        active = [(a, ints, sign * den) for a, (ints, den) in enumerate(zip(rows, dens))]
    for j in range(m):
        # the rest of item j is z_num / z_den in lowest terms; takers lists
        # who took a positive piece of it, once it splits
        z_num = z_den = 1
        takers = None
        while True:
            if not active:
                raise StuckError(
                    f"all agents reached their share with item {j} unfinished; "
                    f"the {selection!r} selection rule cannot complete this instance"
                )
            if heap is None:
                # the best key; ``active`` is ascending, so ties go to the lower index
                i, row, best_den = active[0]
                best_num = row[j]
                for a, row, den in active:
                    if row[j] * best_den < best_num * den:
                        i, best_num, best_den = a, row[j], den
            else:
                _, i, at = heap[0]
                while at != j:
                    ints, order = reads[i]
                    heapreplace(heap, (ints[order[j]] * big // dens[i], i, j))
                    stale += 1
                    _, i, at = heap[0]
                ints, order = reads[i]
                best_num = ints[order[j]]
                if stale > budget and j < _WINDOW:
                    # too many re-reads early on: the scan takes the rest of
                    # the run, over the active agents by index, on rows built now
                    rows = inst._scaled_rows()
                    active = [(a, rows[a], dens[a]) for a in sorted([a for _, a, _ in heap])]
                    heap = None
            cost = scale[i] * best_num
            # z * cost against capacity[i] / over[i], over over[i] * z_den
            need = z_num * cost * over[i]
            have = capacity[i] * z_den
            if need > have and not (goods and len(active) == 1):
                # she fills up and leaves; the last goods agent never does
                if heap is None:
                    del active[bisect_left(active, (i,))]
                else:
                    heappop(heap)
                if not capacity[i]:
                    continue
                p_num, p_den = capacity[i], over[i] * cost
            else:
                # she takes the rest
                if z_den == 1:
                    capacity[i] = have - need
                else:
                    left, den = have - need, over[i] * z_den
                    g = gcd(left, den)
                    capacity[i], over[i] = left // g, den // g
                if takers is None:
                    columns.append(((i, ONE),))
                    break
                p_num, p_den = z_num, z_den
            if takers is None:
                takers = []
            else:
                successors.append(SuccessorRecord(takers[-1][0], i, j))
            takers.append((i, Fraction(p_num, p_den)))
            z_num, z_den = z_num * p_den - p_num * z_den, z_den * p_den
            if not z_num:
                # takes reach an item in take order; columns list agents by index
                columns.append(tuple(sorted(takers)))
                break
            g = gcd(z_num, z_den)
            z_num, z_den = z_num // g, z_den // g

    allocation = FractionalAllocation._from_columns(n, tuple(columns))
    if not allocation.is_complete():
        raise FBTAError("bid-and-take left an item partially allocated")
    return allocation, AllocationTrace(inst.kind, n, m, tuple(successors))


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
