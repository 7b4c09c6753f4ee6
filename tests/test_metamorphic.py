"""Metamorphic relations: renaming items or agents renames the answer.

Both relations are stated on ``tie_free`` instances, and the generator is
part of each relation's definition: every cost is a product of two
fractions over distinct primes of at least 1009, one prime per agent and
one per item, so no two costs of a row are equal and no comparison the
pipeline makes between rationals ties.  On ties either relation can fail,
since every tie rule goes to the smaller index.

* Permuting the items leaves every agent's subsidy unchanged.
* Relabelling the agents relabels the fractional allocation.  The
  subsidies themselves need not follow: the tree split pairs sibling
  edges by the smaller agent index, so a relabelling can pair a tree's
  edges differently (one instance in a sample of 4,000 with n <= 9).
* Scaling one agent's costs by a factor in (0, 1] leaves the fractional
  allocation unchanged: bid-and-take compares ``c_i(e) / c_i(M)``, and
  a share scales with its row.
* Appending an item that costs every agent 0 leaves every agent's
  subsidy unchanged.
"""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from subsidy_fairdiv import CHORES, GOODS, Instance, run_pipeline
from reference import fractional_run

MAX_N = 60

PRIMES = [
    p for p in range(1009, 3001) if all(p % d for d in range(2, int(p**0.5) + 1))
]


def tie_free(kind, n, m, seed):
    """Weights from 1..1000; cost ``(a / p_i) * (b / q_e)`` with ``p_i``, ``q_e``
    distinct primes, ``0 < a < p_i`` and ``0 < b < q_e``."""
    rng = random.Random(seed)
    primes = rng.sample(PRIMES, n + m)
    raw = [rng.randint(1, 1000) for _ in range(n)]
    return Instance(
        kind,
        tuple(Fraction(w, sum(raw)) for w in raw),
        tuple(
            tuple(
                Fraction(rng.randint(1, p - 1), p) * Fraction(rng.randint(1, q - 1), q)
                for q in primes[n:]
            )
            for p in primes[:n]
        ),
    )


@st.composite
def tie_free_instances(draw):
    n = draw(st.integers(1, MAX_N))
    kind = draw(st.sampled_from((CHORES, GOODS)))
    return tie_free(kind, n, draw(st.integers(0, 2 * n)), draw(st.integers(0, 2**32)))


@given(tie_free_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_permuting_items_keeps_every_subsidy(inst, data):
    order = data.draw(st.permutations(range(inst.m)))
    permuted = Instance(
        inst.kind, inst.weights, tuple(tuple(row[e] for e in order) for row in inst.costs)
    )
    assert run_pipeline(permuted).subsidies.amounts == run_pipeline(inst).subsidies.amounts


@given(tie_free_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_relabelling_agents_relabels_the_fractional_allocation(inst, data):
    order = data.draw(st.permutations(range(inst.n)))
    # agent i of the relabelled instance is agent order[i] of the original
    relabelled = Instance(
        inst.kind,
        tuple(inst.weights[a] for a in order),
        tuple(inst.costs[a] for a in order),
    )
    label = {old: new for new, old in enumerate(order)}
    _, alloc, _ = fractional_run(inst)
    assert fractional_run(relabelled)[1].columns == tuple(
        tuple(sorted((label[a], x) for a, x in column)) for column in alloc.columns
    )


@given(tie_free_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_scaling_an_agents_costs_keeps_the_fractional_allocation(inst, data):
    agent = data.draw(st.integers(0, inst.n - 1))
    den = data.draw(st.integers(1, 1000))
    factor = Fraction(data.draw(st.integers(1, den)), den)
    scaled = Instance(
        inst.kind,
        inst.weights,
        tuple(
            tuple(c * factor for c in row) if a == agent else row
            for a, row in enumerate(inst.costs)
        ),
    )
    assert fractional_run(scaled)[1].columns == fractional_run(inst)[1].columns


@given(tie_free_instances())
@settings(max_examples=60, deadline=None)
def test_appending_a_zero_item_keeps_every_subsidy(inst):
    padded = Instance(inst.kind, inst.weights, tuple(row + (0,) for row in inst.costs))
    assert run_pipeline(padded).subsidies.amounts == run_pipeline(inst).subsidies.amounts
