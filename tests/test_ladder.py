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
import types
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


@pytest.mark.parametrize("kind", ["chores", "goods"])
def test_the_ladder_runs_every_stage_on_this_tree(kind):
    mods = this_tree()
    source = mods["oracle"].gen_random_instance(4, 6, kind, seed=1)
    times = ladder.one_run(mods, source)
    assert set(ladder.STAGES) <= set(times)
    assert all(t >= 0 for t in times.values())
    assert ladder.kept_mb(mods, source) >= 0


def test_the_ladder_reads_the_pair_a_parent_tree_reduces_to():
    mods = this_tree()
    reduce_to_ido = mods["ido"].reduce_to_ido
    mods["ido"] = types.SimpleNamespace(reduce_to_ido=lambda inst: (reduce_to_ido(inst), None))
    times = ladder.one_run(mods, mods["oracle"].gen_random_instance(4, 6, "goods", seed=1))
    assert set(ladder.STAGES) <= set(times)
