"""Every package attribute the stage ladder reads still exists.

``tools/ladder.py`` is run by hand, outside the suite, so a renamed or
deleted function it times would only show when the ladder is next run.
This test parses the ladder and resolves each attribute it reads from a
package module, whether through a module variable (``graph.trees``) or
through the per-tree module table (``mods["rounding"]._fractional_stage``).
"""
import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"

_spec = importlib.util.spec_from_file_location("stage_ladder", LADDER)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def module_reads(source, modules):
    """``(module, attribute)`` of every attribute read from one of ``modules``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in modules:
            found.add((value.id, node.attr))
        elif (
            isinstance(value, ast.Subscript)
            and isinstance(value.slice, ast.Constant)
            and value.slice.value in modules
        ):
            found.add((value.slice.value, node.attr))
    return sorted(found)


READS = module_reads(LADDER.read_text(encoding="utf-8"), ladder.MODULES)


def test_the_ladder_reads_each_timed_stage():
    # the parse finds both spellings, so an empty or partial list is a broken parse
    assert {
        ("fbta", "fbta"), ("rounding", "_fractional_stage"), ("oracle", "gen_random_instance"),
    } <= set(READS)


def test_the_parse_finds_a_deleted_name():
    planted = "def f(mods, fbta):\n    fbta.gone(mods['split'].gone_too)\n"
    assert module_reads(planted, ladder.MODULES) == [("fbta", "gone"), ("split", "gone_too")]


@pytest.mark.parametrize("module, name", READS, ids=[f"{m}.{n}" for m, n in READS])
def test_ladder_attribute_resolves(module, name):
    assert hasattr(importlib.import_module(f"{ladder.PACKAGE}.{module}"), name)


def this_tree():
    """The ladder's module table, from the modules this suite imports."""
    return {name: importlib.import_module(f"{ladder.PACKAGE}.{name}") for name in ladder.MODULES}


@pytest.mark.parametrize(
    "draw",
    [{"kind": "chores"}, {"kind": "goods"}, ladder.CONTESTED_DRAW],
    ids=["chores", "goods", "contested"],
)
def test_the_ladder_runs_every_stage_on_this_tree(draw):
    mods = this_tree()
    source = mods["oracle"].gen_random_instance(4, 6, **draw, seed=1)
    times = ladder.one_run(mods, source)
    assert set(times) == set(ladder.STAGES) - {"parse"}
    assert all(t >= 0 for t in times.values())
    assert ladder.kept_mb(mods, source) >= 0


def test_the_ladder_broom_donates_once_per_path_agent():
    mods = this_tree()
    tree = ladder.broom(mods["graph"], 29)
    eap, *rest = mods["split"].split_tree(tree)
    assert (tree.size, eap.k, eap.h) == (29, 4, 5)
    assert [p.kind for p in rest] == ["pair"] * 10


def test_the_hostile_rung_parses_its_document_in_each_run():
    mods = this_tree()
    text = ladder.primes_document(6)
    inst = mods["model"].parse_instance(text)
    assert (inst.kind, inst.n, inst.m) == ("chores", 4, 6)
    assert inst.costs[3][5] == Fraction(1, 13)
    times = ladder.one_run(mods, None, text)
    assert set(times) == set(ladder.STAGES)


def test_a_rung_whose_probes_moved_is_marked_disturbed(monkeypatch):
    # the probes before the first rung read 1 ms and those after it 2 ms, a
    # move of 100%, far beyond the quartile distance of any stage
    readings = iter([1e-3] * ladder.PROBES + [2e-3] * ladder.PROBES + [1e-3] * 2 * ladder.PROBES)
    monkeypatch.setattr(ladder, "RUNS", 2)
    mods = {"parent": this_tree(), "change": this_tree()}
    rungs = ({"kind": "chores", "n": 4, "m": 6}, {**ladder.HOSTILE_RUNGS[0], "m": 6})
    found = ladder.ladder(mods, rungs, lambda: next(readings))
    moved, steady = (rung["probe"] for rung in found["sections"]["change"])
    assert moved == {"before_ms": 1.0, "after_ms": 2.0, "moved": 1.0, "disturbed": True}
    assert steady["moved"] == 0 and steady["disturbed"] is False
    assert "probe" not in found["sections"]["parent"][0]
    assert "parse" in found["sections"]["change"][1]["median_s"]
    assert len(found["probes"]) == 4 * ladder.PROBES


@pytest.mark.parametrize(
    "after, spread, disturbed", [(4.1, 0.05, False), (4.1, 0.02, True), (3.9, 0.02, True)]
)
def test_a_probe_move_beyond_the_quartile_distance_is_a_disturbance(after, spread, disturbed):
    shift = ladder.probe_shift([4.0, 4.2, 3.9, 4.0, 4.0], [after] * 5, spread)
    assert shift["disturbed"] is disturbed
