"""Brute-force rounding oracle and the instance generator."""
from fractions import Fraction

import pytest

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    EnumerationCapExceeded,
    FractionalAllocation,
    Instance,
    ModelError,
    brute_force_rounding,
    gen_random_instance,
    run_pipeline,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv.fbta import fbta
from subsidy_fairdiv.ido import is_ido


def test_brute_force_worked_example(reference_instance, reference_run):
    # 4 fractional items with 2 * 3 * 2 * 2 = 24 assignments; the exact
    # optimum of the worked fractional allocation is 4/5.
    alloc, _, _ = reference_run
    allocation, subsidies = brute_force_rounding(reference_instance, alloc)
    assert subsidies.total == Fraction(4, 5)
    assert allocation.owner == (0, 3, 5, 4, 4, 5)
    assert subsidies.total <= Fraction(11, 6)


def test_brute_force_brackets_pipeline(reference_instance):
    # On the pipeline's own fractional allocation the optimum is a lower
    # bracket for the pipeline total, which the certificate upper-bounds.
    result = run_pipeline(reference_instance)
    _, optimum = brute_force_rounding(result.ido_instance, result.fractional)
    assert optimum.total <= result.subsidies.total
    assert result.subsidies.total <= result.certificate.global_bound


def test_brute_force_integral_input_is_identity():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    alloc, _ = fbta(inst)
    allocation, subsidies = brute_force_rounding(inst, alloc)
    assert allocation.owner == (0, 1)
    assert subsidies.total == 0


def test_brute_force_symmetric_half_item():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1",), ("1",)))
    alloc = FractionalAllocation((("1/2",), ("1/2",)))
    allocation, subsidies = brute_force_rounding(inst, alloc)
    assert subsidies.total == Fraction(1, 2)
    # lexicographic tie-break: the smaller agent wins the item
    assert allocation.owner == (0,)


def test_brute_force_cap():
    n = 12
    inst = Instance(
        CHORES,
        tuple(Fraction(1, n) for _ in range(n)),
        tuple(tuple("1" for _ in range(n)) for _ in range(n)),
    )
    shares = tuple(tuple(Fraction(1, n) for _ in range(n)) for _ in range(n))
    alloc = FractionalAllocation(shares)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_rounding(inst, alloc, cap=100)


@pytest.mark.parametrize(
    "shares, shape",
    [
        # a third agent, holding item 0 whole
        ((("0", "1/2"), ("0", "1/2"), ("1", "0")), "3 agents by 2 items"),
        # a third item, which a 2-item answer would silently drop
        ((("1", "1/2", "1"), ("0", "1/2", "0")), "2 agents by 3 items"),
    ],
)
def test_brute_force_rejects_a_mismatched_allocation(shares, shape):
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    with pytest.raises(ModelError, match=f"allocation is {shape}, instance is 2 by 2"):
        brute_force_rounding(inst, FractionalAllocation(shares))


def test_generator_is_deterministic():
    a = gen_random_instance(n=5, m=9, kind=GOODS, seed=42, dist="correlated")
    b = gen_random_instance(n=5, m=9, kind=GOODS, seed=42, dist="correlated")
    assert a == b
    c = gen_random_instance(n=5, m=9, kind=GOODS, seed=43, dist="correlated")
    assert a != c


def test_generator_outputs_valid_instances():
    for seed in range(40):
        inst = gen_random_instance(
            n=1 + seed % 9,
            m=seed % 15,
            kind=(CHORES, GOODS)[seed % 2],
            seed=seed,
            dist=("uniform", "correlated")[seed // 2 % 2],
        )
        assert not validate_instance(inst)
        assert sum(inst.weights) == 1


def test_generator_ido_option():
    for seed in range(10):
        inst = gen_random_instance(n=4, m=8, seed=seed, force_ido=True)
        assert is_ido(inst)


def test_generator_rejects_bad_params():
    with pytest.raises(ModelError):
        gen_random_instance(n=0, m=3)
    with pytest.raises(ModelError):
        gen_random_instance(n=2, m=-1)
    with pytest.raises(ModelError):
        gen_random_instance(n=2, m=2, kind="stuff")
    with pytest.raises(ModelError):
        gen_random_instance(n=2, m=2, dist="exotic")
    with pytest.raises(ModelError, match="denominator must be positive"):
        gen_random_instance(n=2, m=2, denominator=0)


def test_pinned_small_fixture():
    # Frozen output of the generator; guards against accidental changes
    # to the draw order.
    inst = gen_random_instance(n=2, m=2, seed=0)
    assert inst == Instance(
        CHORES,
        (Fraction(7, 16), Fraction(9, 16)),
        ((Fraction(9, 10), Fraction(7, 10)), (Fraction(7, 10), Fraction(1))),
    )


def test_reference_instance_matches_table(reference_instance):
    assert reference_instance.costs[2][5] == Fraction(9, 10)
    assert sum(reference_instance.weights) == 1
    assert reference_instance.weights == tuple(
        Fraction(1, d) for d in (12, 12, 12, 6, 4, 3)
    )
    assert [wprop_share(reference_instance, i) for i in range(6)] == [
        Fraction(2, 5),
        Fraction(2, 5),
        Fraction(2, 5),
        Fraction(9, 10),
        Fraction(3, 2),
        Fraction(9, 5),
    ]
