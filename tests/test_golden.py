"""The CLI writes byte-identical outputs for every case of the golden corpus.

The corpus lives in ``fixtures/golden`` and is rebuilt only by its own
``regen.py``; these tests read it and never write to it.
"""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from subsidy_fairdiv.cli import main
from subsidy_fairdiv.fbta import fbta
from subsidy_fairdiv.graph import build_graph, trees
from subsidy_fairdiv.ido import reduce_to_ido
from subsidy_fairdiv.model import parse_instance, serialize_instance
from subsidy_fairdiv.split import split_tree

from reference import (
    fractional_run,
    instance_document,
    reference_components,
    reference_document,
    reference_split_tree,
)

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_outputs(case, tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(regen.instance_text(case), encoding="utf-8")
    for method, argv in regen.allocate_runs(instance, case["args"], tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, method
    for name in regen.OUTPUTS:
        expected = (GOLDEN / "cases" / case["name"] / name).read_bytes()
        assert (tmp_path / name).read_bytes() == expected, f"{case['name']}/{name}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_instance_documents(case):
    # the generated cases feed allocate the writer's own text; every case's
    # instance is written back exactly as the reference writes its document
    text = regen.instance_text(case)
    inst = parse_instance(text)
    expected = reference_document(instance_document(inst))
    assert serialize_instance(inst) == expected
    if "input" not in case:
        assert text == expected


def test_golden_corpus_covers_every_tree_shape():
    trees = [
        tree
        for case in CASES
        for tree in json.loads(
            (GOLDEN / "cases" / case["name"] / "tree.cert.json").read_text()
        )["trees"]
    ]
    assert any(t["has_atom_path"] for t in trees)
    assert any(t["emitted"] == "threshold" for t in trees)
    assert any(t["size"] >= 10 for t in trees)
    # an expanded atom-path holds its core item plus one item per attachment
    assert any(
        c["kind"] == "expanded_atom_path" and len(c["items"]) >= 3
        for t in trees
        for c in t["components"]
    )
    # nested atom-paths pin the order in which the split emits them
    assert any(
        sum(c["kind"] == "expanded_atom_path" for c in t["components"]) >= 2
        for t in trees
    )


def test_golden_corpus_keeps_tied_cases_of_both_kinds():
    # on a coarse grid many items tie within a row, so these cases pin the
    # order in which the lift hands out tied items: each agent's preference
    # order from the reduction, ties to the smaller index
    coarse = {
        case["gen"]["kind"]
        for case in CASES
        if case.get("gen", {}).get("denominator", 10) <= 2
    }
    assert coarse >= {"chores", "goods"}


def test_golden_forests_match_the_reference_forests():
    for case in CASES:
        ido_inst = reduce_to_ido(parse_instance(regen.instance_text(case)))
        graph = build_graph(fbta(ido_inst)[1])
        expected = reference_components(graph.edges, range(graph.n))
        assert trees(graph) == expected, case["name"]


def test_golden_trees_split_as_the_reference_splits():
    for case in CASES:
        for tree in fractional_run(parse_instance(regen.instance_text(case)))[2]:
            assert split_tree(tree) == reference_split_tree(tree), case["name"]
