"""The package writes every document through one writer, ``model._document``.

Its output must equal ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
(``reference_document``) on every document the package can hold, it must
refuse every other value, and writing must stay cheap in memory and leave
no cyclic garbage behind.  A parse of the package's modules keeps it the
only writer.
"""
import ast
import gc
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from subsidy_fairdiv import (
    BASELINE,
    CHORES,
    GOODS,
    TREE,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    gen_random_instance,
    run_pipeline,
    serialize_allocation,
    serialize_instance,
)
from subsidy_fairdiv.model import _document

from reference import instance_document, instances, reference_document

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subsidy_fairdiv"

# characters json escapes, or escapes specially: quotes, backslashes,
# control characters, non-ASCII text, astral characters and lone surrogates
AWKWARD = '"\\/\x00\x08\x0c\x1f\x7f\xe9\u2028\uffff\U0001f600\ud800\udfff'
texts = st.text(st.sampled_from(AWKWARD) | st.characters(blacklist_categories=()))
# "10" sorts before "2" as a string, after it as a number
keys = texts | st.integers(0, 120).map(str)
ints = st.integers() | st.integers(-(10**4000), 10**4000)
scalars = st.none() | st.booleans() | ints | texts
documents = st.recursive(
    scalars | st.lists(texts) | st.lists(ints),
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


@given(st.dictionaries(keys, documents))
@example({})
@example({"10": [], "2": {}, "1": [[]], "": [True, False, None, 0]})
@example({"a": ["\ud800", '"\\'], "b": [10**300, -1, 0], "c": ({"x": ()},)})
def test_writer_matches_the_reference(doc):
    assert _document(doc) == reference_document(doc)


@given(instances())
def test_instance_document_matches_the_reference(inst):
    assert serialize_instance(inst) == reference_document(instance_document(inst))


def test_named_instance_document_matches_the_reference():
    inst = Instance(
        GOODS,
        ("1/3", "2/3"),
        (("1/2", "0", "1"), ("1", "1/7", "0.25")),
        agent_names=("anné", '"b\\"'),
        item_names=("x", " ", "z"),
    )
    assert serialize_instance(inst) == reference_document(instance_document(inst))


@pytest.mark.parametrize(
    "doc",
    [
        {"x": 0.5},
        {"x": [1, 2, 0.5]},
        {"x": {"y": float("nan")}},
        {"x": Fraction(1, 2)},
        {"x": [Fraction(1, 2)]},
        {"x": {"y": (Fraction(1),)}},
        {1: "one"},
        {"x": {None: 1}},
        {"x": [{("a",): 1}]},
        {"x": b"bytes"},
        {"x": {1, 2}},
    ],
    ids=repr,
)
def test_writer_refuses_what_no_document_holds(doc):
    with pytest.raises(TypeError):
        _document(doc)


def test_allocation_document_refuses_a_float_extra():
    alloc = run_pipeline(gen_random_instance(n=3, m=5, seed=0)).allocation
    with pytest.raises(TypeError):
        serialize_allocation(alloc, extra={"score": 0.5})


@pytest.mark.parametrize("key", ["owner", "subsidies", "total_subsidy"])
def test_allocation_document_refuses_an_extra_that_overwrites_a_field(key):
    alloc = IntegralAllocation((0, 1))
    subsidies = SubsidyVector(("1/2", "0"))
    with pytest.raises(ModelError, match=repr(key)):
        serialize_allocation(alloc, subsidies, extra={key: "0"})


def test_instance_document_peak_memory_is_a_few_times_its_size():
    inst = gen_random_instance(n=120, m=240, kind=CHORES, seed=1)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = serialize_instance(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4 * len(text), (peak, len(text))


@pytest.mark.parametrize("kind", [CHORES, GOODS])
def test_writing_documents_leaves_no_cyclic_garbage(kind):
    inst = gen_random_instance(n=8, m=20, kind=kind, seed=5)
    gc.collect()
    gc.disable()
    try:
        for method in (TREE, BASELINE):
            result = run_pipeline(inst, method=method)
            result.certificate.to_json()
            serialize_allocation(result.allocation, result.subsidies, extra={"method": method})
            serialize_instance(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One writer: no module of the package calls json.dump or json.dumps
# ---------------------------------------------------------------------------

JSON_WRITERS = {"dump", "dumps"}


def json_writes(source):
    """(line, name) of every ``dump``/``dumps`` attribute read or import from ``json``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found += [(node.lineno, a.name) for a in node.names if a.name in JSON_WRITERS]
    return found


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_one_document_writer(module):
    assert json_writes(module.read_text()) == []


def test_guard_catches_a_planted_json_write():
    source = (PACKAGE / "model.py").read_text()
    planted = {
        "text = json.dumps(doc, indent=2, sort_keys=True)": "dumps",
        "json.dump(doc, fh)": "dump",
        "from json import dumps": "dumps",
        "from json import dump as write": "dump",
        "import json as j\nj.dumps(doc)": "dumps",
    }
    for line, name in planted.items():
        assert name in [n for _, n in json_writes(f"{source}\n{line}\n")], line
