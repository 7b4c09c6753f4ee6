"""The per-tree emit comparison against its plain-Fraction reference.

The pipeline emits, per tree, plain thresholding instead of the split
assignment when ``compute_subsidies`` of the all-threshold allocation sums
to strictly less over the tree's agents than that of the all-split one.
``reference_emit`` (``tests/reference.py``) builds each tree's true
subsidy from its agents' whole-item loads and the tree's assignment.  The
property requires the same ``emitted`` per tree and the same reduced
owners, with shapes up to n = 12 and m = 24.
"""
from hypothesis import given, settings

from subsidy_fairdiv import run_pipeline
from reference import fractional_run, instances, reference_emit


@given(instances(max_n=12, max_m=24))
@settings(max_examples=300, deadline=None)
def test_emit_comparison_matches_per_tree_accounting(inst):
    ido_inst, alloc, forest = fractional_run(inst)
    emitted, owner = reference_emit(ido_inst, alloc, forest)
    result = run_pipeline(inst)
    assert [t.emitted for t in result.certificate.trees] == emitted
    assert result.ido_allocation.owner == owner
