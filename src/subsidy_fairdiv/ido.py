"""Reduction to identical-ordering instances and the lifting of allocations.

An instance is identical-ordering (IDO) when every agent ranks the items
the same way.  The canonical order used throughout this package is
non-decreasing cost (chores) or non-decreasing value (goods): row ``i``
of an IDO instance satisfies ``c_i(e_0) <= c_i(e_1) <= ...``.

Any instance reduces to an IDO one by sorting each agent's row once, into
her preference order; an integral allocation of the IDO instance lifts
back through a picking sequence in which each owner takes items in that
order, which never increases any agent's cost (chores) nor decreases her
value (goods), so subsidies only shrink under lifting.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterator

from .model import CHORES, Instance, IntegralAllocation, ModelError, require_valid


@dataclass(frozen=True)
class RankProfile:
    """Each agent's preference order over the original items.

    ``sigma[i]`` lists the items from agent ``i``'s favorite to her least
    favorite: cheapest first for chores, most valuable first for goods,
    ties to the smaller item index.  Row ``i`` of the reduced instance is
    ``sigma[i]`` for chores and ``reversed(sigma[i])`` for goods, which
    makes every reduced row non-decreasing.  A profile built from outside
    is checked once, here: every row must be an order of the items
    ``range(len(sigma[0]))``.
    """

    sigma: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        items = set(range(len(self.sigma[0]))) if self.sigma else set()
        for i, row in enumerate(self.sigma):
            if len(row) != len(items) or items.symmetric_difference(row):
                raise ModelError(f"rank profile row {i} is not an order of the items")

    @classmethod
    def _of(cls, sigma: tuple[tuple[int, ...], ...]) -> RankProfile:
        """The profile of these orders, taken as they are: each is a sort of
        ``range(m)``, so it is an order of the items by construction."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "sigma", sigma)
        return profile


def is_ido(inst: Instance) -> bool:
    """True iff every agent's row is non-decreasing in item order."""
    return all(all(map(le, ints, ints[1:])) for ints, _ in inst._rows)


def reduce_to_ido(inst: Instance) -> tuple[Instance, RankProfile]:
    """Permute each agent's row into her preference order.

    The orders are the instance's rank orders (``Instance._orders``), which
    validation sorted, once, by the integer rows; the sort is stable, so
    ties go to the smaller index, and nothing is sorted here.  The reduced
    instance keeps kind, weights, the verdict, every row total and each
    row's integers, each row permuted by one ``itemgetter`` call, so each
    agent's proportional share is unchanged.  Its ``costs`` are built only
    when read, the same way, from ``inst``'s own ``Fraction`` objects.  An
    invalid instance raises :class:`ModelError` before anything is kept.
    """
    require_valid(inst)
    return inst._permuted(), RankProfile._of(inst._orders)


def lift_allocation(
    inst: Instance, profile: RankProfile, ido_alloc: IntegralAllocation
) -> IntegralAllocation:
    """Lift an integral allocation of the reduced instance back.

    Slots are visited from cheapest to costliest for chores (the reverse
    for goods) and each slot's owner picks her favorite still-unallocated
    original item, the first one left in her ``profile.sigma`` row.
    Guarantees, per agent, that the lifted bundle costs at most (is worth
    at least) the reduced-instance bundle.

    A :class:`RankProfile` is an order of the items row by row once built,
    so only its shape is checked here: one row per agent, each owner an
    agent whose row covers the ``m`` items.  Each owner keeps one lazy
    cursor over her row that skips items already taken, advanced by
    ``next`` at each of her slots: O(m) per owner, O(k m) for k distinct
    owners.
    """
    m = inst.m
    if ido_alloc.m != m:
        raise ModelError(
            f"allocation covers {ido_alloc.m} items, instance has {m}"
        )
    if len(profile.sigma) != inst.n:
        raise ModelError("rank profile does not match the instance")
    order = range(m) if inst.kind == CHORES else range(m - 1, -1, -1)
    owner: list[int | None] = [None] * m
    favorites: dict[int, Iterator[int]] = {}
    for slot in order:
        agent = ido_alloc.owner[slot]
        cursor = favorites.get(agent)
        if cursor is None:
            if not 0 <= agent < inst.n:
                raise ModelError(f"item {slot} assigned to unknown agent {agent}")
            row = profile.sigma[agent]
            if len(row) != m:
                raise ModelError(f"rank profile row {agent} is not an order of the items")
            cursor = favorites[agent] = (e for e in row if owner[e] is None)
        owner[next(cursor)] = agent
    return IntegralAllocation(tuple(owner))
