"""Domain types, validation, subsidies, and the instance file format."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from subsidy_fairdiv import (
    CHORES,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    compute_subsidies,
    format_decimal,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    validate_instance,
    wprop_share,
)
from subsidy_fairdiv.model import frac
from reference import bundle_cost


def test_frac_parses_decimals_exactly():
    assert frac("0.7") == Fraction(7, 10)
    assert frac("1/3") == Fraction(1, 3)
    assert frac(3) == Fraction(3)
    assert frac("-0.25") == Fraction(-1, 4)


def test_frac_rejects_floats_and_junk():
    with pytest.raises(ModelError):
        frac(0.7)
    with pytest.raises(ModelError):
        frac("seven tenths")
    with pytest.raises(ModelError):
        frac("1/0")
    with pytest.raises(ModelError):
        frac(True)


def test_wprop_shares_of_reference_instance(reference_instance):
    shares = [wprop_share(reference_instance, i) for i in range(6)]
    # The last agent's share is 1/3 * 27/5 = 9/5; her fractional bundle
    # in the worked run costs 17/10, strictly below it.
    assert shares == [
        Fraction(2, 5),
        Fraction(2, 5),
        Fraction(2, 5),
        Fraction(9, 10),
        Fraction(3, 2),
        Fraction(9, 5),
    ]


def test_wprop_share_zero_cost_agent():
    inst = Instance(CHORES, ("1/2", "1/2"), (("0", "0"), ("1", "1")))
    assert wprop_share(inst, 0) == 0


def test_wprop_share_index_error(reference_instance):
    with pytest.raises(IndexError):
        wprop_share(reference_instance, 6)


def test_compute_subsidies_direct_substitution(reference_instance):
    # Bundle {e0} for agent 0 costs 7/10 against a share of 2/5.
    alloc = IntegralAllocation((0, 3, 5, 1, 4, 5))
    subs = compute_subsidies(reference_instance, alloc)
    assert subs.amounts[0] == Fraction(3, 10)


def test_compute_subsidies_clamped_at_zero():
    inst = Instance(CHORES, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    subs = compute_subsidies(inst, IntegralAllocation((0, 1)))
    assert subs.amounts == (Fraction(0), Fraction(0))
    assert subs.total == 0


def test_compute_subsidies_goods_shortfall():
    inst = Instance(GOODS, ("1/2", "1/2"), (("1", "1"), ("1", "1")))
    subs = compute_subsidies(inst, IntegralAllocation((0, 0)))
    assert subs.amounts == (Fraction(0), Fraction(1))


@pytest.mark.parametrize(
    "owner, bad",
    [
        ((0, 0.9, 1), 1),  # a float, which ``int`` would truncate to 0
        (("1", 0), 0),  # a string
        ((0, 1, True), 2),  # a bool, an int to Python but no agent index
    ],
)
def test_integral_allocation_refuses_owners_that_are_not_ints(owner, bad):
    with pytest.raises(ModelError, match=rf"^owner\[{bad}\] is {owner[bad]!r}, not an agent index$"):
        IntegralAllocation(owner)


def test_integral_allocation_keeps_int_owners_as_a_tuple():
    assert IntegralAllocation([2, 0, 1]).owner == (2, 0, 1)
    assert IntegralAllocation(()).owner == ()


def test_compute_subsidies_requires_complete_allocation(reference_instance):
    with pytest.raises(ModelError):
        compute_subsidies(reference_instance, IntegralAllocation((0, 1)))


THREE_ITEMS = Instance(
    CHORES, ("1/2", "1/2"), (("1/2", "1/4", "1/4"), ("1/3", "1/3", "1/3"))
)


@pytest.mark.parametrize(
    "owner, message",
    [
        ((0, -1, 1), "item 1 assigned to unknown agent -1"),  # would wrap to the last agent
        ((0, 1), "allocation covers 2 items, instance has 3"),  # would drop item 2
        ((0, 1, 1, 0), "allocation covers 4 items, instance has 3"),
        ((0, 2, 1), "item 1 assigned to unknown agent 2"),
    ],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda alloc: alloc.bundle_costs(THREE_ITEMS),
        lambda alloc: compute_subsidies(THREE_ITEMS, alloc),
    ],
    ids=["bundle_costs", "compute_subsidies"],
)
def test_bundles_are_read_only_for_a_partition_of_the_items(call, owner, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        call(IntegralAllocation(owner))


def test_bundle_costs_of_a_partition():
    alloc = IntegralAllocation((0, 1, 1))
    assert alloc.bundle_costs(THREE_ITEMS) == (Fraction(1, 2), Fraction(2, 3))
    assert IntegralAllocation(()).bundle_costs(Instance(GOODS, ("1",), ((),))) == (0,)


@pytest.mark.parametrize(
    "shares, row",
    [
        ([["1"], ["0", "1"]], 1),  # a longer row: an item beyond row 0
        ([["1", "0"], ["0"]], 1),  # a shorter row: item 1 held by nobody
    ],
)
def test_fractional_allocation_rejects_ragged_rows(shares, row):
    with pytest.raises(ModelError, match=f"share row {row} "):
        FractionalAllocation(shares)


def test_subsidies_are_pointwise_minimal(reference_instance):
    # Any reduction of a positive subsidy breaks the share inequality.
    alloc = IntegralAllocation((0, 3, 5, 1, 4, 5))
    subs = compute_subsidies(reference_instance, alloc)
    for i, s in enumerate(subs.amounts):
        load = bundle_cost(reference_instance, alloc, i)
        share = wprop_share(reference_instance, i)
        assert load - s <= share
        if s > 0:
            assert load - (s - Fraction(1, 10**9)) > share


def test_validate_reference_instance_clean(reference_instance):
    assert validate_instance(reference_instance) == ()


def test_validate_bad_weight_sum():
    inst = Instance(CHORES, ("1/2", "1/3"), (("1", "1"), ("1", "1")))
    assert any("sum" in v for v in validate_instance(inst))


def test_validate_cost_out_of_range():
    inst = Instance(CHORES, ("1/2", "1/2"), (("3/2", "1"), ("1", "1")))
    assert any("exceeds 1" in v for v in validate_instance(inst))


def test_validate_flags_degenerate_agent():
    # an all-zero row is valid: that agent's share is zero
    inst = Instance(CHORES, ("1/2", "1/2"), (("0", "0"), ("1", "1")))
    assert validate_instance(inst) == ()


def test_parse_serialize_round_trip(reference_instance):
    text = serialize_instance(reference_instance)
    again = parse_instance(text)
    assert again == reference_instance
    assert serialize_instance(again) == text


def test_parse_rejects_float_literals():
    with pytest.raises(ModelError, match="float"):
        parse_instance('{"kind": "chores", "weights": [0.5, 0.5], "costs": [["1"], ["1"]]}')


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(ModelError):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [["1"], ["1"]]}')
    with pytest.raises(ModelError):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [["1", "1"], ["1"]]}')


def test_parse_rejects_names_that_are_not_arrays():
    with pytest.raises(ModelError, match="arrays"):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [["1"]], "agent_names": 5}')
    with pytest.raises(ModelError, match="arrays"):
        parse_instance('{"kind": "chores", "weights": ["1"], "costs": [["1"]], "item_names": "e"}')


def test_parse_rejects_bad_kind_and_json():
    with pytest.raises(ModelError):
        parse_instance('{"kind": "tasks", "weights": ["1"], "costs": [["1"]]}')
    with pytest.raises(ModelError, match="line"):
        parse_instance("{not json")


def test_allocation_round_trip():
    alloc = IntegralAllocation((0, 1, 0))
    text = serialize_allocation(alloc)
    again, subs = parse_allocation(text)
    assert again == alloc
    assert subs is None


rationals = st.fractions(
    min_value=0, max_value=1, max_denominator=30
)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.sampled_from([CHORES, GOODS]),
            st.lists(st.integers(1, 9), min_size=n, max_size=n),
            st.integers(0, 5).flatmap(
                lambda m: st.lists(
                    st.lists(rationals, min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            ),
        )
    )
)
def test_round_trip_identity_property(data):
    kind, raw_weights, costs = data
    total = sum(raw_weights)
    inst = Instance(
        kind,
        tuple(Fraction(w, total) for w in raw_weights),
        tuple(tuple(row) for row in costs),
    )
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "value,digits,expected",
    [
        (Fraction(7, 10), 3, "0.700"),
        (Fraction(1, 3), 4, "0.3333"),
        (Fraction(2, 3), 2, "0.67"),
        (Fraction(11, 6), 0, "2"),
        (Fraction(-1, 8), 2, "-0.13"),
        # a whole part beside 4,300 fraction digits, a rounding carry into it
        pytest.param(Fraction(-23, 6), 4300, "-3.8" + "3" * 4299, id="limit-negative"),
        pytest.param(1 - Fraction(1, 10**4301), 4300, "1." + "0" * 4300, id="limit-carry"),
    ],
)
def test_format_decimal(value, digits, expected):
    assert format_decimal(value, digits) == expected


def test_format_decimal_refuses_a_negative_digit_count():
    with pytest.raises(ModelError, match="decimal digits must be non-negative"):
        format_decimal(Fraction(7, 10), -1)
