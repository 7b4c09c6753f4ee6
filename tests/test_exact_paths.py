"""The pipeline's pieces together, invisible caches and bounded parse cost.

One run of ``run_pipeline`` must agree with the plain-Fraction references
of ``tests/reference.py`` at every stage it exposes: sigma and reduced
rows, the bid-and-take events, the lifted owners.  Both methods on one
instance share its one fractional stage and write what a fresh instance
writes.  The caches on ``Instance`` (integer rows, units, violations and
that stage), on ``FractionalAllocation`` (its dense ``shares`` view) and
on a certificate (its totals and failed checks) must not show in
equality, hashing, ``repr``, ``dataclasses.replace``, pickling or the file
format.  Parsing converts each distinct string of a document once, and
rejects a bad document with the message that names its first bad field.
A reduced instance builds its ``costs`` only when they are read, from the
source's own entries, which nothing in the pipeline does, and otherwise
behaves as a constructed one.  A decimal exponent too large to write
back, and a rational too long to write, fail with a ``ModelError`` (exit
2 at the command line), not a traceback.
"""
import collections
import dataclasses
import json
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from subsidy_fairdiv import (
    CHORES,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    brute_force_rounding,
    compute_subsidies,
    format_decimal,
    gen_random_instance,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    to_dot,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv import model
from subsidy_fairdiv.cli import main
from subsidy_fairdiv.fbta import NORMALIZED, fbta
from subsidy_fairdiv.ido import is_ido, reduce_to_ido
from subsidy_fairdiv.model import ONE, frac, require_valid
from subsidy_fairdiv.rounding import (
    BASELINE,
    TREE,
    ComponentRounding,
    HALF,
    integralize,
    run_pipeline,
)
from reference import (
    instances,
    reference_bid_and_take,
    reference_lift,
    reference_reduce,
    share,
    with_edge_cases,
)


@with_edge_cases
@given(instances())
@settings(max_examples=150, deadline=None)
def test_pipeline_pieces_match_reference(inst):
    result = run_pipeline(inst)
    rows, sigma = reference_reduce(inst)
    assert result.ido_instance.costs == rows
    assert inst._orders == (sigma if inst.kind == CHORES else tuple(s[::-1] for s in sigma))
    _, successors = reference_bid_and_take(result.ido_instance, NORMALIZED)
    assert [(r.agent, r.successor, r.item) for r in result.trace.successors] == successors
    assert result.allocation.owner == reference_lift(inst, result.ido_allocation.owner)
    for e in range(inst.m):
        assert result.fractional.sharers(e) == tuple(
            i for i in range(inst.n) if result.fractional.shares[i][e] > 0
        )
    assert result.certificate.holds


# ---------------------------------------------------------------------------
# Caches are invisible
# ---------------------------------------------------------------------------

CACHES = {"_rows", "_orders", "_units", "_violations", "_ido", "_fractional_stage"}


def _warm_instance(inst):
    for i in range(inst.n):
        wprop_share(inst, i)
    assert validate_instance(inst) == ()
    compute_subsidies(inst, IntegralAllocation((0,) * inst.m))
    assert inst._rows
    assert "_violations" in vars(inst) and "_orders" in vars(inst)
    is_ido(inst)
    assert "_ido" in vars(inst)
    reduce_to_ido(inst)
    run_pipeline(inst)
    run_pipeline(inst, method=BASELINE)
    assert "_fractional_stage" in vars(inst)


@given(instances(max_n=4, max_m=5))
@settings(max_examples=100, deadline=None)
def test_instance_caches_are_invisible(inst):
    cold = Instance(inst.kind, inst.weights, inst.costs)
    pickled = pickle.dumps(cold)
    _warm_instance(inst)
    assert inst == cold and hash(inst) == hash(cold) and repr(inst) == repr(cold)
    assert pickle.dumps(inst) == pickled
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst
    assert not CACHES & set(vars(again))
    assert again._rows == inst._rows and again._units == inst._units
    assert validate_instance(again) == ()
    assert [wprop_share(again, i) for i in range(again.n)] == [
        share(inst, i) for i in range(inst.n)
    ]
    assert dataclasses.replace(inst) == cold
    assert not CACHES & set(vars(dataclasses.replace(inst)))
    assert parse_instance(serialize_instance(inst)) == inst


def test_replace_does_not_carry_caches():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1/2", "1/2"), ("1", "1")))
    assert wprop_share(inst, 0) == Fraction(1, 2)
    assert inst._rows == (((1, 1), 2), ((1, 1), 1))
    assert inst._units == ((2, 2, 4), (2, 2, 2))
    assert validate_instance(inst) == ()
    other = dataclasses.replace(inst, costs=(("1", "1"), ("1", "1")))
    assert other._rows == (((1, 1), 1), ((1, 1), 1))
    assert other._units == ((2, 2, 2), (2, 2, 2))
    assert wprop_share(other, 0) == 1
    bad = dataclasses.replace(inst, costs=(("1", "2"), ("1", "1")))
    assert validate_instance(bad) == ("cost of item 1 for agent 0 is 2, exceeds 1",)


def test_fractional_allocation_caches_are_invisible():
    shares = (("1/2", "1", 0), ("1/2", 0, "1"))
    warm = FractionalAllocation(shares)
    cold = FractionalAllocation(shares)
    pickled = pickle.dumps(cold)
    assert [warm.sharers(e) for e in range(3)] == [(0, 1), (0,), (1,)]
    assert warm.is_complete()
    # the dense view is a cache too
    assert warm.shares == tuple(tuple(frac(x) for x in row) for row in shares)
    assert "shares" in vars(warm) and "shares" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert "shares" not in repr(warm)
    assert pickle.dumps(warm) == pickled
    again = pickle.loads(pickle.dumps(warm))
    assert "shares" not in vars(again)
    assert again.sharers(0) == (0, 1) and again.shares == warm.shares
    moved = dataclasses.replace(warm, shares=((1, 1, 0), (0, 0, 1)))
    assert moved.sharers(0) == (0,)
    assert moved.shares == ((1, 1, 0), (0, 0, 1))


def test_subsidy_and_certificate_totals_are_invisible(reference_instance):
    cert = run_pipeline(reference_instance).certificate
    cold = dataclasses.replace(cert)
    assert cert.holds and cert.rounded_subsidies.total == cert.rounded_total
    assert "component_subsidy_total" in vars(cert) and "total" in vars(cert.final_subsidies)
    assert vars(cert)["_failed"] == () and "_failed" not in vars(cold)
    assert cert == cold and repr(cert) == repr(cold)
    assert pickle.dumps(cert) == pickle.dumps(cold)
    again = pickle.loads(pickle.dumps(cert))
    assert "component_subsidy_total" not in vars(again) and "_failed" not in vars(again)
    assert "total" not in vars(again.final_subsidies)
    assert again.to_json() == cert.to_json()
    vector = SubsidyVector(("1/2", "0", "1/3"))
    assert vector.total == Fraction(5, 6)
    assert vector == SubsidyVector(("1/2", "0", "1/3"))
    assert hash(vector) == hash(SubsidyVector(("1/2", "0", "1/3")))
    assert "total" not in repr(vector)
    assert dataclasses.replace(vector, amounts=("1",)).total == 1


def test_allocation_from_columns_equals_dense_one(reference_instance):
    alloc, _ = fbta(reduce_to_ido(reference_instance))
    assert "shares" not in vars(alloc)
    dense = FractionalAllocation(alloc.shares)
    assert dense == alloc and hash(dense) == hash(alloc) and repr(dense) == repr(alloc)
    assert pickle.loads(pickle.dumps(alloc)) == dense


def test_fractional_allocation_rejects_negative_shares():
    with pytest.raises(ModelError, match="below 0"):
        FractionalAllocation((("3/2",), ("-1/2",)))


def test_require_valid_raises_the_same_text_every_call():
    inst = Instance(CHORES, ("1/2", "1/3"), (("1", "2"), ("0", "1")))
    messages = []
    for _ in range(3):
        with pytest.raises(ModelError) as exc:
            require_valid(inst)
        messages.append(str(exc.value))
    assert messages == [
        "invalid instance: weights sum to 5/6, not 1; "
        "cost of item 1 for agent 0 is 2, exceeds 1"
    ] * 3


def test_a_parsed_instance_is_validated_once(reference_instance):
    parsed = parse_instance(serialize_instance(reference_instance))
    violations = vars(parsed)["_violations"]
    assert violations == ()
    run_pipeline(parsed)
    run_pipeline(parsed, method=BASELINE)
    assert validate_instance(parsed) is violations


def _documents(result):
    return (
        serialize_allocation(result.allocation, result.subsidies),
        result.certificate.to_json(),
        result.trace,
        to_dot(result.graph),
    )


@with_edge_cases
@given(instances())
@settings(max_examples=100, deadline=None)
def test_both_methods_share_one_fractional_stage(inst):
    for methods in ((TREE, BASELINE), (BASELINE, TREE)):
        shared = Instance(inst.kind, inst.weights, inst.costs)
        first, second = (run_pipeline(shared, method=method) for method in methods)
        for name in ("ido_instance", "fractional", "trace", "graph"):
            assert getattr(first, name) is getattr(second, name)
        for method, result in zip(methods, (first, second)):
            fresh = run_pipeline(Instance(inst.kind, inst.weights, inst.costs), method=method)
            assert result.certificate.method == method
            assert _documents(result) == _documents(fresh)


@with_edge_cases
@given(instances())
@settings(max_examples=50, deadline=None)
def test_the_rank_profile_is_the_orders_validation_sorted(inst):
    # the rows are sorted once, by validation; the reduction sorts nothing
    inst = Instance(inst.kind, inst.weights, inst.costs)
    result = run_pipeline(inst)
    assert result.ido_instance._permutation[2] is inst._orders


def test_an_invalid_instance_raises_on_every_run():
    inst = Instance(CHORES, ("1/2", "1/3"), (("1", "1/2"), ("0", "1")))
    for method in (TREE, BASELINE, TREE):
        with pytest.raises(ModelError, match="^invalid instance: weights sum to 5/6, not 1$"):
            run_pipeline(inst, method=method)
    assert "_fractional_stage" not in vars(inst)


# ---------------------------------------------------------------------------
# Each rational string is converted once per document
# ---------------------------------------------------------------------------

def _primes(count):
    found, candidate = [], 1000
    while len(found) < count:
        candidate += 1
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            found.append(candidate)
    return found


def test_parse_of_distinct_entries_equals_the_literal_instance():
    n, m = 4, 9
    primes = _primes(n * m + n)
    weights = [Fraction(p, sum(primes[:n])) for p in primes[:n]]
    rows = [
        [Fraction(e + 1, primes[n + i * m + e]) for e in range(m)] for i in range(n)
    ]
    doc = json.dumps(
        {"kind": CHORES, "weights": [str(w) for w in weights],
         "costs": [[str(c) for c in row] for row in rows]}
    )
    assert parse_instance(doc) == Instance(CHORES, tuple(weights), tuple(map(tuple, rows)))


def test_parse_reads_a_number_written_three_ways():
    doc = '{"kind": "chores", "weights": ["1"], "costs": [["1", 1, " 1 ", "1"]]}'
    assert parse_instance(doc).costs == ((ONE,) * 4,)
    with pytest.raises(ModelError, match=r"^costs\[0\]\[1\]: not a rational: True$"):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [["1", true]]}')
    with pytest.raises(ModelError, match=r"^costs\[0\]\[2\]: not a rational: True$"):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [[1, "1", true]]}')


_ROWS = '"costs": [["1", %s], ["1", %s]]'

# one bad field per document, or several: the message names the first in
# document order, weights before costs, row by row
BAD_DOCUMENTS = [
    ('"weights": ["1/2", 0.5], ' + _ROWS % ('"0"', '"0"'),
     "weights[1]: float literals are inexact; write the number as a string"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('"0"', "0.5"),
     "costs[1][1]: float literals are inexact; write the number as a string"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ("true", '"1"'),
     "costs[0][1]: not a rational: True"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('"1"', "true"),
     "costs[1][1]: not a rational: True"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('"nan"', '"1"'),
     "costs[0][1]: not a rational: 'nan'"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('"1/2"', '"1/0"'),
     "costs[1][1]: not a rational: '1/0'"),
    ('"weights": ["1/2", "1/-2"], ' + _ROWS % ('"1/-2"', '"1"'),
     "weights[1]: not a rational: '1/-2'"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('"1e5000"', '"1e5000"'),
     "costs[0][1]: exponent beyond 4300 in magnitude: '1e5000'"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ('["1"]', '"x"'),
     "costs[0][1]: not a rational: ['1']"),
    ('"weights": ["1/2", "1/2"], ' + _ROWS % ("null", '"1"'),
     "costs[0][1]: not a rational: None"),
    ('"weights": ["1/2", "abc"], ' + _ROWS % ('"abc"', '"1"'),
     "weights[1]: not a rational: 'abc'"),
]


@pytest.mark.parametrize("body, message", BAD_DOCUMENTS)
def test_parse_names_the_first_bad_field(body, message):
    with pytest.raises(ModelError) as exc:
        parse_instance('{"kind": "chores", %s}' % body)
    assert str(exc.value) == message


def _instance_doc(**fields):
    """A valid two-agent, two-item chores document with ``fields`` replaced."""
    doc = {"kind": "chores", "weights": ["1/2", "1/2"], "costs": [["1", "0"], ["1", "0"]]}
    return json.dumps({**doc, **fields})


# each refusal with the exact message it raises
REFUSALS = {
    "zero_agents": (
        lambda: parse_instance(_instance_doc(weights=[], costs=[])),
        "invalid instance: instance needs at least one agent"),
    "zero_weight": (
        lambda: parse_instance(_instance_doc(weights=["0", "1"])),
        "invalid instance: weight of agent 0 is 0, must be positive"),
    "negative_weight": (
        lambda: parse_instance(_instance_doc(weights=["3/2", "-1/2"])),
        "invalid instance: weight of agent 1 is -1/2, must be positive"),
    "agent_names_length": (
        lambda: parse_instance(_instance_doc(agent_names=["a"])),
        "invalid instance: agent_names length does not match agent count"),
    "item_names_length": (
        lambda: parse_instance(_instance_doc(item_names=["a", "b", "c"])),
        "invalid instance: item_names length does not match item count"),
    "missing_field": (
        lambda: parse_instance('{"kind": "chores", "weights": ["1"]}'),
        "instance: missing field 'costs'"),
    "weights_not_an_array": (
        lambda: parse_instance(_instance_doc(weights="1")),
        "instance: weights and costs must be arrays"),
    "costs_not_an_array": (
        lambda: parse_instance(_instance_doc(costs={"0": ["1", "0"]})),
        "instance: weights and costs must be arrays"),
    "cost_row_not_an_array": (
        lambda: parse_instance(_instance_doc(costs=[["1", "0"], "1"])),
        "costs[1]: must be an array"),
    "instance_not_an_object": (
        lambda: parse_instance("[]"),
        "instance: top-level value must be an object"),
    "allocation_not_an_object": (
        lambda: parse_allocation('"owner"'),
        "allocation: top-level value must be an object"),
    "subsidies_not_an_array": (
        lambda: parse_allocation('{"owner": [0], "subsidies": "0"}'),
        "allocation: subsidies must be an array"),
    "unknown_method": (
        lambda: run_pipeline(gen_random_instance(2, 3, CHORES, 0), method="x"),
        "unknown rounding method 'x'"),
    "unassigned_fractional_item": (
        lambda: integralize(FractionalAllocation([["1", "1/2"], ["0", "1/2"]]), {}),
        "fractional item 1 has no assignment"),
    "negative_share": (
        lambda: FractionalAllocation([["1/2", "-1/3"], ["1/2", "4/3"]]),
        "share of item 1 for agent 0 is -1/3, below 0"),
    "unprintable_negative_share": (
        lambda: FractionalAllocation([["-1e-4300"], ["1"]]),
        "share of item 0 for agent 0 is "
        f"<a rational of more than {sys.get_int_max_str_digits()} digits>, below 0"),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_refusal_message_is_exact(refusal):
    call, message = REFUSALS[refusal]
    with pytest.raises(ModelError) as exc:
        call()
    assert str(exc.value) == message


def test_parse_converts_each_distinct_string_once(monkeypatch):
    text = serialize_instance(gen_random_instance(30, 60, CHORES, 0, denominator=10))
    doc = json.loads(text)
    strings = doc["weights"] + [c for row in doc["costs"] for c in row]
    seen = collections.Counter()
    convert = model._exact_field

    def counting(value, where):
        seen[value] += 1
        return convert(value, where)

    monkeypatch.setattr(model, "_exact_field", counting)
    parse_instance(text)
    assert set(seen) == set(strings) and max(seen.values()) == 1
    assert len(seen) < len(strings) // 40


# ---------------------------------------------------------------------------
# The reduced instance builds its costs on first read
# ---------------------------------------------------------------------------

@with_edge_cases
@given(instances())
@settings(max_examples=100, deadline=None)
def test_the_pipeline_never_reads_the_reduced_costs(inst):
    # a fresh instance: an example shared with other tests may hold a stage
    # whose reduced costs those tests have read
    inst = Instance(inst.kind, inst.weights, inst.costs)
    for method in (TREE, BASELINE):
        result = run_pipeline(inst, method=method)
        ido_inst = result.ido_instance
        result.certificate.to_json()
        compute_subsidies(ido_inst, result.ido_allocation)
        brute_force_rounding(ido_inst, result.fractional)
        assert type(ido_inst) is Instance
        assert "costs" not in vars(ido_inst)


def _source_entries(inst, orders):
    """The reduced rows, read off the source's own entries through ``orders``."""
    return tuple(tuple(row[e] for e in order) for row, order in zip(inst.costs, orders))


@with_edge_cases
@given(instances())
@settings(max_examples=100, deadline=None)
def test_reduced_costs_are_the_source_entries(inst):
    ido_inst = reduce_to_ido(inst)
    expected = _source_entries(inst, inst._orders)
    assert ido_inst.costs == reference_reduce(inst)[0] == expected
    assert all(
        x is y for got, want in zip(ido_inst.costs, expected) for x, y in zip(got, want)
    )


@with_edge_cases
@given(instances(max_n=4, max_m=5))
@settings(max_examples=100, deadline=None)
def test_a_reduced_instance_behaves_as_a_constructed_one(inst):
    def reduced():
        ido_inst = reduce_to_ido(inst)
        assert "costs" not in vars(ido_inst)
        return ido_inst

    built = Instance(inst.kind, inst.weights, _source_entries(inst, inst._orders))
    assert reduced() == built and built == reduced()
    assert hash(reduced()) == hash(built)
    assert repr(reduced()) == repr(built)
    assert pickle.dumps(reduced()) == pickle.dumps(built)
    again = pickle.loads(pickle.dumps(reduced()))
    assert again == built and "_permutation" not in vars(again)
    assert dataclasses.replace(reduced()) == built
    assert dataclasses.replace(reduced(), kind="x") == dataclasses.replace(built, kind="x")
    assert reduced().m == built.m and validate_instance(reduced()) == ()


def test_an_instance_lacks_only_the_attributes_it_lacks(reference_instance):
    ido_inst = reduce_to_ido(reference_instance)
    with pytest.raises(AttributeError, match="'Instance' object has no attribute 'price'"):
        ido_inst.price
    with pytest.raises(AttributeError, match="'Instance' object has no attribute 'price'"):
        reference_instance.price


# ---------------------------------------------------------------------------
# Bounded parse cost and documents too long to write
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["1e-4301", "1e4301", "1E+4_301", " 2.5e-99999 "])
def test_frac_rejects_huge_exponents(text):
    with pytest.raises(ModelError, match="exponent"):
        frac(text)


def test_frac_keeps_plain_rationals():
    assert frac("0.7") == frac("7/10") == Fraction(7, 10)
    assert frac("7e-1") == Fraction(7, 10)
    assert frac("1e-4300") == Fraction(1, 10**4300)


@pytest.mark.parametrize("text", ["1e-4301", "1e4301"])
def test_parse_names_the_field_with_a_huge_exponent(text, tmp_path, capsys):
    doc = '{"kind": "chores", "weights": ["1"], "costs": [["0.5", "%s"]]}' % text
    with pytest.raises(ModelError, match=r"costs\[0\]\[1\]"):
        parse_instance(doc)
    path = tmp_path / "instance.json"
    path.write_text(doc)
    assert main(["allocate", "--input", str(path)]) == 2
    assert "costs[0][1]" in capsys.readouterr().err


def test_component_too_long_to_write_raises_model_error(reference_instance):
    tiny = Fraction(1, 10**4300)  # a 4,301-digit denominator
    comp = ComponentRounding("single_edge", (0,), ((0, 0),), "threshold->0", tiny, HALF)
    with pytest.raises(ModelError, match="too long"):
        comp.to_doc()
    cert = run_pipeline(reference_instance).certificate
    with pytest.raises(ModelError, match="too long"):
        dataclasses.replace(cert, components=(comp,)).to_json()


@pytest.mark.parametrize("local, bound", [(0, 1), (2, 1)])
def test_certificate_of_int_amounts_judges_as_one_of_fractions(
    reference_instance, local, bound
):
    cert = run_pipeline(reference_instance).certificate

    def judged(local, bound):
        comp = ComponentRounding("single_edge", (0,), ((0, 0),), "threshold->0", local, bound)
        assert type(comp.local_subsidy) is type(comp.bound) is Fraction
        c = dataclasses.replace(cert, components=(comp,))
        return c, c.component_bound_total, c.holds, c.failures(), c.to_json()

    assert judged(local, bound) == judged(Fraction(local), Fraction(bound))


def test_failing_certificate_with_a_rational_too_long_to_write(reference_instance):
    # holds compares exactly and formats nothing; failures() cannot be written
    tiny = Fraction(1, 10**4300)
    comp = ComponentRounding("single_edge", (0,), ((0, 0),), "threshold->0", 1 + tiny, HALF)
    cert = run_pipeline(reference_instance).certificate
    failing = dataclasses.replace(cert, components=(comp,))
    assert failing.holds is False
    with pytest.raises(ModelError, match="too long"):
        failing.failures()
    with pytest.raises(ModelError, match="too long"):
        failing.to_json()
    assert cert.holds and cert.failures() == []


def test_decimal_rendering_too_long_to_write_raises_model_error(
    reference_instance, tmp_path, capsys
):
    with pytest.raises(ModelError, match="too long"):
        format_decimal(Fraction(1, 3), 5000)
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(reference_instance))
    assert main(["allocate", "--input", str(path), "--decimal", "5000"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_allocate_exits_2_when_outputs_are_too_long(tmp_path, capsys):
    # two coprime 2,201-digit denominators: each cost can be read, but the
    # row total and every share and subsidy built from it cannot be written
    p, q = 10**2200 + 1, 10**2200 + 3
    doc = (
        '{"kind": "chores", "weights": ["1/2", "1/2"], '
        f'"costs": [["1/{p}", "1/{q}"], ["1/{q}", "1/{p}"]]}}'
    )
    path = tmp_path / "instance.json"
    path.write_text(doc)
    out, cert = tmp_path / "alloc.json", tmp_path / "cert.json"
    code = main(["allocate", "--input", str(path), "--out", str(out), "--certificate", str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not cert.exists()
