"""Reduction to identical-ordering instances and the lifting of allocations.

An instance is identical-ordering (IDO) when every agent ranks the items
the same way.  The canonical order used throughout this package is
non-decreasing cost (chores) or non-decreasing value (goods): row ``i``
of an IDO instance satisfies ``c_i(e_0) <= c_i(e_1) <= ...``.

Any instance reduces to an IDO one by permuting each agent's row by its
rank order (``Instance._orders``), which validation sorted once, already
non-decreasing.  An integral allocation of the IDO instance lifts back
through a picking sequence in which each owner takes items in her
preference order: her rank order for chores, the same order walked
backwards for goods, whose favorite is at the end.  This never increases
any agent's cost (chores) nor decreases her value (goods), so subsidies
only shrink under lifting.
"""
from __future__ import annotations

from typing import Iterator

from .model import (
    GOODS,
    Instance,
    IntegralAllocation,
    ModelError,
    require_valid,
    validate_instance,
)


def is_ido(inst: Instance) -> bool:
    """True iff every agent's row is non-decreasing in item order.

    Found once per instance and kept; a reduced instance carries it.
    """
    return inst._ido


def reduce_to_ido(inst: Instance) -> Instance:
    """Permute each agent's row by its rank order, into the IDO instance.

    The orders are the instance's rank orders (``Instance._orders``), which
    validation sorted, once, by the integer rows, so nothing is sorted
    here.  The reduced instance keeps kind, weights, the verdict, every row
    total and each row's integers, each row permuted by one ``itemgetter``
    call, so each agent's proportional share is unchanged; it is IDO by
    construction and says so without a scan.  Its ``costs`` are built only
    when read, the same way, from ``inst``'s own ``Fraction`` objects.  An
    invalid instance raises :class:`ModelError` before anything is kept.
    """
    require_valid(inst)
    return inst._permuted()


def lift_allocation(inst: Instance, ido_alloc: IntegralAllocation) -> IntegralAllocation:
    """Lift an integral allocation of ``inst``'s reduced instance back to ``inst``.

    Slots are visited from cheapest to costliest for chores (the reverse
    for goods) and each slot's owner picks her favorite still-unallocated
    original item: the first one left in her rank order ``inst._orders``
    for chores, the last one left for goods.  Guarantees, per agent, that
    the lifted bundle costs at most (is worth at least) the reduced-instance
    bundle.

    ``inst`` must be valid, so that every order covers the ``m`` items: the
    lift reads its kept verdict, and an invalid instance raises
    :class:`ModelError` through :func:`require_valid`.  A pipeline run has
    validated ``inst`` already and so calls ``require_valid`` only once, in
    the reduction.  Each owner keeps
    one lazy cursor over her order that skips items already taken, advanced
    by ``next`` at each of her slots: O(m) per owner, O(k m) for k distinct
    owners.
    """
    if validate_instance(inst):
        require_valid(inst)  # raises, naming every violation
    m = inst.m
    if ido_alloc.m != m:
        raise ModelError(
            f"allocation covers {ido_alloc.m} items, instance has {m}"
        )
    goods = inst.kind == GOODS
    orders = inst._orders
    owner: list[int | None] = [None] * m
    favorites: dict[int, Iterator[int]] = {}
    for slot in range(m - 1, -1, -1) if goods else range(m):
        agent = ido_alloc.owner[slot]
        cursor = favorites.get(agent)
        if cursor is None:
            if not 0 <= agent < inst.n:
                raise ModelError(f"item {slot} assigned to unknown agent {agent}")
            row = reversed(orders[agent]) if goods else orders[agent]
            cursor = favorites[agent] = (e for e in row if owner[e] is None)
        owner[next(cursor)] = agent
    return IntegralAllocation(tuple(owner))
