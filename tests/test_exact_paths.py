"""The integer fast paths against the Fraction code they replaced.

Reduction, lifting and bid-and-take selection sort and compare integers
scaled over a common denominator.  The reference copies below are the
Fraction-key versions they replaced.  The properties require identical
sigma, reduced rows and lifted owners, and require every take of a
bid-and-take run to go to the agent the reference rule picks in that
state; the rest of the run is unchanged Fraction code, so equal picks
mean equal fractional shares and trace events.  Instances are tie-heavy
grids with all-zero rows, fewer items than agents (m = 0 included), a
single agent, weights with denominators near 10^6, and both kinds.  The
caches on ``Instance`` (integer rows, totals, shares) and on
``FractionalAllocation`` (its dense ``shares`` view) must not show in
equality, hashing, ``repr``, ``dataclasses.replace``, pickling or the
file format.
"""
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    NORMALIZED,
    RAW_COST,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    StuckError,
    SubsidyVector,
    compute_subsidies,
    format_decimal,
    frac,
    is_ido,
    lift_allocation,
    parse_instance,
    reduce_to_ido,
    serialize_instance,
    six_agent_reference_instance,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv.cli import main
from subsidy_fairdiv.fbta import bid_and_take
from subsidy_fairdiv.model import ZERO
from subsidy_fairdiv.rounding import ComponentRounding, HALF, run_pipeline


# ---------------------------------------------------------------------------
# Reference copies of the replaced Fraction code
# ---------------------------------------------------------------------------

def reference_reduce(inst):
    """Sort each row on ``(cost, index)``, goods on ``(-cost, index)``: (reduced rows, sigma)."""
    m = inst.m
    sign = 1 if inst.kind == CHORES else -1
    rows, sigma = [], []
    for row in inst.costs:
        order = sorted(range(m), key=lambda e: (sign * row[e], e))
        sigma.append(tuple(order))
        rows.append(tuple(sorted(row)))
    return tuple(rows), tuple(sigma)


def reference_lift(inst, ido_owner):
    """Each slot's owner takes her favorite remaining item by a min/max scan."""
    m = inst.m
    order = range(m) if inst.kind == CHORES else range(m - 1, -1, -1)
    remaining = set(range(m))
    owner = [0] * m
    for slot in order:
        agent = ido_owner[slot]
        row = inst.costs[agent]
        if inst.kind == CHORES:
            pick = min(remaining, key=lambda e: (row[e], e))
        else:
            pick = max(remaining, key=lambda e: (row[e], -e))
        remaining.remove(pick)
        owner[pick] = agent
    return tuple(owner)


def reference_choose(inst, selection, active, item):
    """The active agent with the best Fraction key, ties to the lower index."""

    def key(agent):
        cost = inst.costs[agent][item]
        if selection == RAW_COST:
            return cost
        total = sum(inst.costs[agent], ZERO)
        return cost / total if total else ZERO

    if inst.kind == GOODS:
        return max(active, key=lambda a: (key(a), -a))
    return min(active, key=lambda a: (key(a), a))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@st.composite
def instances(draw, max_n=6, max_m=8):
    """Small instances built to tie: grids of 1/2, 1/3 or 1/6, zero rows,
    m < n and m = 0, a single agent, and weights near 10^6 in denominator."""
    kind = draw(st.sampled_from([CHORES, GOODS]))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    grid = draw(st.sampled_from([2, 3, 6]))
    wide = draw(st.booleans())
    top = 10**6 if wide else 9
    raw = [draw(st.integers(max(1, top - 50), top)) if wide else draw(st.integers(1, top))
           for _ in range(n)]
    weights = tuple(Fraction(w, sum(raw)) for w in raw)
    costs = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            costs.append((Fraction(0),) * m)
        else:
            costs.append(tuple(Fraction(draw(st.integers(0, grid)), grid) for _ in range(m)))
    return Instance(kind, weights, tuple(costs))


EDGE_CASES = (
    Instance(CHORES, ("1/2", "1/2"), ((), ())),
    Instance(GOODS, ("1",), (("1/2", "1/2", "0"),)),
    Instance(CHORES, ("1/3", "2/3"), (("0", "0"), ("1/2", "1/2"))),
    Instance(GOODS, ("1/4", "3/4"), (("0", "0"), ("0", "0"))),
    Instance(CHORES, ("1/3", "1/3", "1/3"), (("1/2",), ("1/2",), ("1/2",))),
)


def with_edge_cases(test):
    """Always try m = 0, one agent, zero rows and m < n, whatever is drawn."""
    for inst in EDGE_CASES:
        test = example(inst)(test)
    return test


def replay_selections(inst, selection, trace):
    """Every take of the run went to the agent the reference rule picks."""
    active = list(range(inst.n))
    for event in trace.events:
        assert event.agent == reference_choose(inst, selection, active, event.item)
        if event.inactivated:
            active.remove(event.agent)


# ---------------------------------------------------------------------------
# Equivalence with the reference copies
# ---------------------------------------------------------------------------

@with_edge_cases
@given(instances())
@settings(max_examples=300, deadline=None)
def test_reduction_matches_reference(inst):
    ido_inst, profile = reduce_to_ido(inst)
    rows, sigma = reference_reduce(inst)
    assert ido_inst.costs == rows
    assert profile.sigma == sigma


@given(instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_lift_matches_reference(inst, data):
    _, profile = reduce_to_ido(inst)
    ido_owner = tuple(data.draw(st.integers(0, inst.n - 1)) for _ in range(inst.m))
    lifted = lift_allocation(inst, profile, IntegralAllocation(ido_owner))
    assert lifted.owner == reference_lift(inst, ido_owner)


@with_edge_cases
@given(instances())
@settings(max_examples=300, deadline=None)
def test_normalized_selection_matches_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    alloc, trace = bid_and_take(ido_inst, NORMALIZED)
    replay_selections(ido_inst, NORMALIZED, trace)
    assert alloc.is_complete()


@given(instances().filter(lambda inst: inst.kind == CHORES))
@settings(max_examples=150, deadline=None)
def test_raw_cost_selection_matches_reference(inst):
    ido_inst, _ = reduce_to_ido(inst)
    try:
        _, trace = bid_and_take(ido_inst, RAW_COST)
    except StuckError:
        return
    replay_selections(ido_inst, RAW_COST, trace)


@with_edge_cases
@given(instances())
@settings(max_examples=150, deadline=None)
def test_pipeline_pieces_match_reference(inst):
    result = run_pipeline(inst)
    rows, sigma = reference_reduce(inst)
    assert result.ido_instance.costs == rows
    assert result.profile.sigma == sigma
    replay_selections(result.ido_instance, NORMALIZED, result.trace)
    assert result.allocation.owner == reference_lift(inst, result.ido_allocation.owner)
    for e in range(inst.m):
        assert result.fractional.sharers(e) == tuple(
            i for i in range(inst.n) if result.fractional.shares[i][e] > 0
        )
    assert result.certificate.holds


# ---------------------------------------------------------------------------
# Caches are invisible
# ---------------------------------------------------------------------------

def _warm_instance(inst):
    for i in range(inst.n):
        inst.total_cost(i)
        wprop_share(inst, i)
    validate_instance(inst)
    compute_subsidies(inst, IntegralAllocation((0,) * inst.m))
    assert inst._rows
    is_ido(inst)
    reduce_to_ido(inst)


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
    assert "_rows" not in vars(again) and "_units" not in vars(again)
    assert again._rows == inst._rows and again._units == inst._units
    assert [again.total_cost(i) for i in range(again.n)] == [
        sum(row, ZERO) for row in inst.costs
    ]
    assert dataclasses.replace(inst) == cold
    assert not {"_rows", "_units"} & set(vars(dataclasses.replace(inst)))
    assert parse_instance(serialize_instance(inst)) == inst


def test_replace_does_not_carry_caches():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1/2", "1/2"), ("1", "1")))
    assert wprop_share(inst, 0) == Fraction(1, 2)
    assert inst._rows == (((1, 1), 2), ((1, 1), 1))
    assert inst._units == ((2, 2, 4), (2, 2, 2))
    other = dataclasses.replace(inst, costs=(("1", "1"), ("1", "1")))
    assert other._rows == (((1, 1), 1), ((1, 1), 1))
    assert other._units == ((2, 2, 2), (2, 2, 2))
    assert other.total_cost(0) == 2
    assert wprop_share(other, 0) == 1


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


def test_subsidy_and_certificate_totals_are_invisible():
    cert = run_pipeline(six_agent_reference_instance()).certificate
    cold = dataclasses.replace(cert)
    assert cert.holds and cert.rounded_subsidies.total == cert.rounded_total
    assert "component_subsidy_total" in vars(cert) and "total" in vars(cert.final_subsidies)
    assert cert == cold and repr(cert) == repr(cold)
    assert pickle.dumps(cert) == pickle.dumps(cold)
    again = pickle.loads(pickle.dumps(cert))
    assert "component_subsidy_total" not in vars(again)
    assert "total" not in vars(again.final_subsidies)
    assert again.to_json() == cert.to_json()
    vector = SubsidyVector(("1/2", "0", "1/3"))
    assert vector.total == Fraction(5, 6)
    assert vector == SubsidyVector(("1/2", "0", "1/3"))
    assert hash(vector) == hash(SubsidyVector(("1/2", "0", "1/3")))
    assert "total" not in repr(vector)
    assert dataclasses.replace(vector, amounts=("1",)).total == 1


def test_allocation_from_columns_equals_dense_one():
    alloc, _ = bid_and_take(reduce_to_ido(six_agent_reference_instance())[0], NORMALIZED)
    assert "shares" not in vars(alloc)
    dense = FractionalAllocation(alloc.shares)
    assert dense == alloc and hash(dense) == hash(alloc) and repr(dense) == repr(alloc)
    assert pickle.loads(pickle.dumps(alloc)) == dense


def test_fractional_allocation_rejects_negative_shares():
    with pytest.raises(ModelError, match="below 0"):
        FractionalAllocation((("3/2",), ("-1/2",)))


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


def test_component_too_long_to_write_raises_model_error():
    tiny = Fraction(1, 10**4300)  # a 4,301-digit denominator
    comp = ComponentRounding("single_edge", (0,), ((0, 0),), "threshold->0", tiny, HALF)
    with pytest.raises(ModelError, match="too long"):
        comp.to_doc()
    cert = run_pipeline(six_agent_reference_instance()).certificate
    with pytest.raises(ModelError, match="too long"):
        dataclasses.replace(cert, components=(comp,)).to_json()


def test_failing_certificate_with_a_rational_too_long_to_write():
    # holds compares exactly and formats nothing; failures() cannot be written
    tiny = Fraction(1, 10**4300)
    comp = ComponentRounding("single_edge", (0,), ((0, 0),), "threshold->0", 1 + tiny, HALF)
    cert = run_pipeline(six_agent_reference_instance()).certificate
    failing = dataclasses.replace(cert, components=(comp,))
    assert failing.holds is False
    with pytest.raises(ModelError, match="too long"):
        failing.failures()
    with pytest.raises(ModelError, match="too long"):
        failing.to_json()
    assert cert.holds and cert.failures() == []


def test_decimal_rendering_too_long_to_write_raises_model_error(tmp_path, capsys):
    with pytest.raises(ModelError, match="too long"):
        format_decimal(Fraction(1, 3), 5000)
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(six_agent_reference_instance()))
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
