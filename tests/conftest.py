"""Shared fixtures: the 6-agent reference instance and its worked run."""
from __future__ import annotations

from pathlib import Path

import pytest

from subsidy_fairdiv import Instance, parse_instance
from subsidy_fairdiv.fbta import RAW_COST, fbta
from subsidy_fairdiv.graph import build_graph, trees
from subsidy_fairdiv.model import frac

REFERENCE_FILE = Path(__file__).resolve().parents[1] / "fixtures" / "reference_6x6.json"

# Fractional allocation of the reference instance under the raw-cost
# selection rule; the canonical worked example for graph and rounding
# fixtures (agents 0..5, items 0..5).
REFERENCE_FRACTIONS = (
    ("4/7", 0, 0, 0, 0, 0),
    (0, "1/2", 0, 0, 0, 0),
    ("3/7", "1/8", 0, 0, 0, 0),
    (0, "3/8", "3/4", 0, 0, 0),
    (0, 0, 0, 1, "1/2", 0),
    (0, 0, "1/4", 0, "1/2", 1),
)

# (tail, head, item) edges of the worked example's item-sharing tree.
REFERENCE_EDGES = ((0, 2, 0), (1, 2, 1), (2, 3, 1), (3, 5, 2), (4, 5, 4))


@pytest.fixture(scope="session")
def reference_instance() -> Instance:
    return parse_instance(REFERENCE_FILE.read_text())


@pytest.fixture(scope="session")
def reference_run(reference_instance):
    """(fractional allocation, trace, graph) of the worked-example run."""
    alloc, trace = fbta(reference_instance, selection=RAW_COST)
    graph = build_graph(trace)
    return alloc, trace, graph


@pytest.fixture(scope="session")
def reference_tree(reference_run):
    _, _, graph = reference_run
    forest = trees(graph)
    assert len(forest) == 1
    return forest[0]


def fmatrix(rows):
    return tuple(tuple(frac(v) for v in row) for row in rows)
