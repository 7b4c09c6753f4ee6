"""Every function the benchmark's tracer spans still exists in the package.

``perfbench/tracing.py`` reports a listed name that no longer resolves as
absent instead of failing, so a rename would silently drop its per-layer
numbers; these tests load the tracer's list by path and resolve each entry,
and check that the entries are reached where the package calls them.
"""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import subsidy_fairdiv as sf

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
GOLDEN = ROOT / "fixtures" / "golden"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, name", tracing.TRACED, ids=tracing.SPAN_NAMES)
def test_traced_function_resolves(module, name):
    target = importlib.import_module(f"subsidy_fairdiv.{module}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)


_regen_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_regen_spec)
_regen_spec.loader.exec_module(regen)


def test_the_golden_runs_reach_every_traced_function_but_make_tree():
    # the pipeline splits through simple_split and atom_path_split, so their
    # spans fire; make_tree builds only trees that callers hand in
    cases = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    texts = [regen.instance_text(case) for case in cases]
    tracer = tracing.Tracer("subsidy_fairdiv")
    tracer.install()
    try:
        for text in texts:
            inst = sf.parse_instance(text)
            sf.serialize_instance(inst)
            result = sf.run_pipeline(inst)
            result.certificate.to_json()
            sf.run_pipeline(inst, sf.BASELINE)
            try:
                sf.brute_force_rounding(result.ido_instance, result.fractional)
            except sf.EnumerationCapExceeded:
                pass
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    seen = {span[3] for span in tracer.spans}
    assert set(tracing.SPAN_NAMES) - seen == {"graph.make_tree"}
