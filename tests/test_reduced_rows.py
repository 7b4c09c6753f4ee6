"""The fractional stage keeps no reduced rows, and reading them gives today's values.

After bid-and-take the pipeline needs only each agent's share minus the
items she holds whole, and the costs of the shared items, so the reduced
instance keeps only its permutation: no integer rows and no ``costs``
until something reads them.  Read afterwards they must equal an eager
reduction: each source row in its rank order ``_orders``.  The reduced
instance refers to no ``Instance``, so an instance and
its results are freed without the cycle collector.  The rounded subsidies,
found from the stage's base and the shared items alone, equal
``compute_subsidies`` of the reduced instance and allocation, and so do
the brute-force oracle's, which builds no reduced rows either.  A reduced
instance carries its source's verdict and its own identical-ordering one,
which a fresh validation and a fresh scan of a rebuilt copy agree with, so
``fbta`` on one builds its rows and nothing else, and returns the stage's
fractional allocation and trace.
"""
import gc
import importlib.util
import json
import weakref
from pathlib import Path

import pytest

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    Instance,
    brute_force_rounding,
    compute_subsidies,
    gen_random_instance,
    parse_instance,
)
from subsidy_fairdiv import fbta, graph, ido, model, oracle, rounding, split
from subsidy_fairdiv.rounding import BASELINE, TREE, run_pipeline

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RUNS = ((TREE,), (BASELINE,), (TREE, BASELINE), (BASELINE, TREE))


def acceptance_shapes(count):
    """Instances of the acceptance suite's shape: n = 2..10, m <= 20, both kinds."""
    for seed in range(count):
        n = 2 + seed % 9
        yield gen_random_instance(
            n=n, m=n + (seed * 7) % (21 - n), kind=(CHORES, GOODS)[seed % 2],
            seed=seed, dist=("uniform", "correlated")[(seed // 2) % 2],
        )


def few_items():
    """Instances with no item and with one item, of both kinds."""
    for m in (0, 1):
        for kind in (CHORES, GOODS):
            for n in (1, 2, 5):
                yield gen_random_instance(n=n, m=m, kind=kind, seed=n)


def golden_instances():
    for case in CASES:
        yield parse_instance(regen.instance_text(case))


def fresh(inst):
    return Instance(inst.kind, inst.weights, inst.costs)


def eager(inst):
    """The reduced rows and costs: each source row in its rank order."""
    orders = inst._orders
    rows = tuple(
        (tuple(ints[e] for e in order), d) for order, (ints, d) in zip(orders, inst._rows)
    )
    costs = tuple(tuple(row[e] for e in order) for order, row in zip(orders, inst.costs))
    return rows, costs


def assert_rows_kept_out(inst):
    """Every run order leaves the reduced instance without rows or costs, and
    reading them afterwards gives the eager reduction's."""
    for methods in RUNS:
        shared = fresh(inst)
        results = [run_pipeline(shared, method=method) for method in methods]
        ido_inst = results[0].ido_instance
        assert not {"_rows", "costs"} & set(vars(ido_inst)), methods
        rows, costs = eager(shared)
        assert ido_inst.m == shared.m and not {"_rows", "costs"} & set(vars(ido_inst))
        assert [
            [ido_inst._entry(a, e) for e in range(shared.m)] for a in range(shared.n)
        ] == [list(ints) for ints, _ in rows]
        assert "_rows" not in vars(ido_inst)
        assert ido_inst._rows == rows
        assert ido_inst.costs == costs
        assert all(x is y for got, want in zip(ido_inst.costs, costs) for x, y in zip(got, want))


def assert_rounded_subsidies_exact(inst):
    for method in (TREE, BASELINE):
        result = run_pipeline(fresh(inst), method=method)
        expected = compute_subsidies(result.ido_instance, result.ido_allocation)
        assert result.certificate.rounded_subsidies == expected, method


def test_golden_reduced_rows_are_kept_out_and_read_back():
    for inst in golden_instances():
        assert_rows_kept_out(inst)


def test_acceptance_shapes_reduced_rows_are_kept_out_and_read_back():
    for inst in acceptance_shapes(200):
        assert_rows_kept_out(inst)


def test_reduced_rows_of_zero_and_one_items():
    for inst in few_items():
        assert_rows_kept_out(inst)


def test_golden_rounded_subsidies_match_compute_subsidies():
    for inst in golden_instances():
        assert_rounded_subsidies_exact(inst)


def test_acceptance_shapes_rounded_subsidies_match_compute_subsidies():
    for inst in acceptance_shapes(200):
        assert_rounded_subsidies_exact(inst)
    for inst in few_items():
        assert_rounded_subsidies_exact(inst)


def test_the_oracle_prices_a_reduced_instance_without_its_rows():
    for inst in acceptance_shapes(100):
        result = run_pipeline(inst)
        optimum, subsidies = brute_force_rounding(result.ido_instance, result.fractional)
        assert not {"_rows", "costs"} & set(vars(result.ido_instance))
        assert subsidies == compute_subsidies(result.ido_instance, optimum)


@pytest.mark.parametrize("kind", (CHORES, GOODS))
def test_an_instance_and_its_results_need_no_cycle_collection(kind):
    gc.collect()
    gc.disable()
    try:
        inst = gen_random_instance(n=12, m=30, kind=kind, seed=3)
        ref = weakref.ref(inst)
        results = [run_pipeline(inst), run_pipeline(inst, method=BASELINE)]
        assert "_fractional_stage" in vars(inst)
        del inst, results
        assert ref() is None
    finally:
        gc.enable()


def test_a_first_run_validates_once(monkeypatch):
    calls = []
    require_valid = model.require_valid
    for module in (model, ido, fbta, graph, split, rounding, oracle):
        if hasattr(module, "require_valid"):
            monkeypatch.setattr(
                module, "require_valid", lambda inst: calls.append(inst) or require_valid(inst)
            )
    inst = gen_random_instance(n=4, m=9, kind=GOODS, seed=5)
    run_pipeline(inst)
    run_pipeline(inst, method=BASELINE)
    assert len(calls) == 1 and calls[0] is inst


def test_golden_reduced_instances_carry_the_verdict_of_a_fresh_validation():
    for inst in golden_instances():
        ido_inst = ido.reduce_to_ido(inst)
        carried = vars(ido_inst)["_violations"]
        rebuilt = Instance(ido_inst.kind, ido_inst.weights, ido_inst.costs)
        assert carried == model.validate_instance(rebuilt) == ()


@pytest.mark.parametrize("kind", (CHORES, GOODS))
def test_fbta_on_a_reduced_instance_builds_only_its_rows(kind):
    runs = 0
    for inst in [*golden_instances(), *acceptance_shapes(100), *few_items()]:
        if inst.kind != kind:
            continue
        result = run_pipeline(fresh(inst))
        ido_inst = result.ido_instance
        kept = set(vars(ido_inst))
        assert fbta.fbta(ido_inst) == (result.fractional, result.trace)
        assert not {"costs", "_orders"} & set(vars(ido_inst))
        assert set(vars(ido_inst)) - kept == {"_rows"}
        runs += 1
    assert runs > 100


@pytest.mark.parametrize("kind", (CHORES, GOODS))
def test_reduced_instances_carry_the_ido_verdict_of_a_fresh_scan(kind):
    runs = 0
    for inst in [*golden_instances(), *acceptance_shapes(100), *few_items()]:
        if inst.kind != kind:
            continue
        ido_inst = ido.reduce_to_ido(fresh(inst))
        carried = vars(ido_inst)["_ido"]
        rebuilt = Instance(ido_inst.kind, ido_inst.weights, ido_inst.costs)
        assert "_ido" not in vars(rebuilt)
        assert carried is ido.is_ido(rebuilt) is True
        assert len(ido_inst._permutation) == 3
        runs += 1
    assert runs > 100
