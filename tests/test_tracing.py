"""Every function the benchmark's tracer spans still exists in the package.

``perfbench/tracing.py`` reports a listed name that no longer resolves as
absent instead of failing, so a rename would silently drop its per-layer
numbers; this test loads the tracer's list by path and resolves each entry.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, name", tracing.TRACED, ids=tracing.SPAN_NAMES)
def test_traced_function_resolves(module, name):
    target = importlib.import_module(f"subsidy_fairdiv.{module}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)
