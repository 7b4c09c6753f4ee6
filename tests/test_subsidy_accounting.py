"""The per-tree emit comparison against its plain-Fraction reference.

The pipeline emits, per tree, plain thresholding instead of the split
assignment when its agents' true subsidies sum to strictly less under it.
``reference_emit`` (``tests/reference.py``) builds each tree's true
subsidy from its agents' whole-item loads and the tree's assignment.  The
property requires the same ``emitted`` per tree, the same reduced owners
and the same per-agent rounded subsidies, for both methods, with shapes up
to n = 12 and m = 24, and each method's certificate to hold.
"""
from hypothesis import given, settings

from subsidy_fairdiv import BASELINE, run_pipeline
from reference import (
    fractional_run,
    instances,
    largest_holder,
    reference_compute_subsidies,
    reference_emit,
)


@given(instances(max_n=12, max_m=24))
@settings(max_examples=300, deadline=None)
def test_emit_comparison_matches_per_tree_accounting(inst):
    ido_inst, alloc, forest = fractional_run(inst)
    emitted, owner = reference_emit(ido_inst, alloc, forest)
    result = run_pipeline(inst)
    assert [t.emitted for t in result.certificate.trees] == emitted
    assert result.ido_allocation.owner == owner
    assert result.certificate.rounded_subsidies.amounts == (
        reference_compute_subsidies(ido_inst, owner)
    )
    # the baseline thresholds every item
    owner = tuple(largest_holder(alloc, e) for e in range(alloc.m))
    baseline = run_pipeline(inst, BASELINE)
    assert baseline.ido_allocation.owner == owner
    assert baseline.certificate.rounded_subsidies.amounts == (
        reference_compute_subsidies(ido_inst, owner)
    )
    assert result.certificate.holds and baseline.certificate.holds
