"""The package namespace: the pinned surface, its submodules and the README example."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import subsidy_fairdiv

README = Path(__file__).resolve().parents[1] / "README.md"

SURFACE = [
    "CHORES",
    "GOODS",
    "TREE",
    "BASELINE",
    "ModelError",
    "EnumerationCapExceeded",
    "Instance",
    "FractionalAllocation",
    "IntegralAllocation",
    "SubsidyVector",
    "AllocationTrace",
    "SuccessorRecord",
    "ItemSharingGraph",
    "Edge",
    "PipelineResult",
    "RoundingCertificate",
    "TreeRounding",
    "ComponentRounding",
    "run_pipeline",
    "parse_instance",
    "serialize_instance",
    "parse_allocation",
    "serialize_allocation",
    "validate_instance",
    "compute_subsidies",
    "wprop_share",
    "format_decimal",
    "to_dot",
    "brute_force_rounding",
    "gen_random_instance",
]

# the modules perfbench/run.py reads from sys.modules after importing the package
BENCHMARKED_MODULES = ("model", "ido", "fbta", "graph", "split", "rounding", "oracle")


def test_all_is_the_pinned_surface():
    assert subsidy_fairdiv.__all__ == SURFACE


def test_all_names_are_unique_and_resolve():
    names = subsidy_fairdiv.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(subsidy_fairdiv, name), name


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(subsidy_fairdiv.__path__):
        module = importlib.import_module(f"subsidy_fairdiv.{info.name}")
        assert getattr(subsidy_fairdiv, info.name) is module, info.name


def test_fresh_import_loads_the_benchmarked_modules():
    code = "import sys, subsidy_fairdiv; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(subsidy_fairdiv.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert {f"subsidy_fairdiv.{m}" for m in BENCHMARKED_MODULES} <= loaded


def test_readme_library_example_runs():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    example = text[start:text.index("```", start)]
    assert "sf.run_pipeline(inst)" in example
    exec(compile(example, str(README), "exec"), {})
