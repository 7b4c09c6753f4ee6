"""Reduction to identical-ordering instances and the lifting of allocations.

An instance is identical-ordering (IDO) when every agent ranks the items
the same way.  The canonical order used throughout this package is
non-decreasing cost (chores) or non-decreasing value (goods): row ``i``
of an IDO instance satisfies ``c_i(e_0) <= c_i(e_1) <= ...``.

Any instance reduces to an IDO one by sorting each agent's row; an
integral allocation of the IDO instance then lifts back through a
picking sequence that never increases any agent's cost (chores) nor
decreases her value (goods), so subsidies only shrink under lifting.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterator, Sequence

from .model import CHORES, Instance, IntegralAllocation, ModelError


@dataclass(frozen=True)
class RankProfile:
    """Per-agent ranking used by the reduction.

    ``sigma[i][r]`` is the r-th most costly (most valuable, for goods)
    original item under agent ``i``'s row, ties broken by smaller item
    index.  Slot ``k`` of the reduced instance takes the cost of
    ``sigma[i][m - 1 - k]``, which makes every reduced row non-decreasing.
    """

    sigma: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sigma[0]) if self.sigma else 0


def is_ido(inst: Instance) -> bool:
    """True iff every agent's row is non-decreasing in item order."""
    return all(all(map(le, ints, ints[1:])) for ints, _ in inst._rows)


def _ranking(items: Sequence[int], keys: Sequence[int], descending: bool) -> list[int]:
    """The ascending ``items`` ordered by an integer row; ties keep index order.

    The sort is stable, so ties go to the smaller index in either direction.
    """
    return sorted(items, key=keys.__getitem__, reverse=descending)


def reduce_to_ido(inst: Instance) -> tuple[Instance, RankProfile]:
    """Sort each agent's row into the canonical non-decreasing order.

    The rows are sorted by the instance's integer rows.  The reduced
    instance keeps kind, weights, every row total and each row's integers
    (permuted), so each agent's proportional share is unchanged.
    """
    # one set of index objects shared by every row's ranking: 8 bytes per
    # sigma entry instead of a new int each
    items = list(range(inst.m))
    sigma = tuple(
        tuple(_ranking(items, ints, descending=True)) for ints, _ in inst._rows
    )
    ido_inst = inst._permuted(reversed(desc) for desc in sigma)
    return ido_inst, RankProfile(sigma)


def lift_allocation(
    inst: Instance, profile: RankProfile, ido_alloc: IntegralAllocation
) -> IntegralAllocation:
    """Lift an integral allocation of the reduced instance back.

    Slots are visited from cheapest to costliest for chores (the reverse
    for goods) and each slot's owner picks her favorite still-unallocated
    original item: minimum cost for chores, maximum value for goods, ties
    to the smaller item index.  Guarantees, per agent, that the lifted
    bundle costs at most (is worth at least) the reduced-instance bundle.

    Each owner's picking order is sorted once, in O(m log m), from the
    instance's integer row, and read through a cursor that skips items
    already taken, so the lift costs O(k m log m) time and O(k m) memory
    for k distinct owners.
    """
    m = inst.m
    if ido_alloc.m != m:
        raise ModelError(
            f"allocation covers {ido_alloc.m} items, instance has {m}"
        )
    if profile.m != m and m > 0:
        raise ModelError("rank profile does not match the instance")
    chores = inst.kind == CHORES
    order = range(m) if chores else range(m - 1, -1, -1)
    owner: list[int | None] = [None] * m
    items = list(range(m))  # shared by every picking order, as in the reduction
    favorites: dict[int, Iterator[int]] = {}
    for slot in order:
        agent = ido_alloc.owner[slot]
        if agent not in favorites:
            favorites[agent] = iter(_ranking(items, inst._rows[agent][0], not chores))
        pick = next(e for e in favorites[agent] if owner[e] is None)
        owner[pick] = agent
    return IntegralAllocation(tuple(owner))
