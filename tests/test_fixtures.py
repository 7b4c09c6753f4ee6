"""The repository fixture files stay in sync with the code that made them."""
from pathlib import Path

from subsidy_fairdiv import (
    CHORES,
    Instance,
    gen_random_instance,
    parse_instance,
    serialize_instance,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_reference_fixture_file():
    # the 6-agent, 6-item chores instance of the worked example: costs on
    # the tenths grid, already in canonical non-decreasing order
    weights = ("1/12", "1/12", "1/12", "1/6", "1/4", "1/3")
    costs = (
        ("0.7", "0.7", "0.7", "0.7", "1", "1"),
        ("0.8", "0.8", "0.8", "0.8", "0.8", "0.8"),
        ("0.7", "0.8", "0.8", "0.8", "0.8", "0.9"),
        ("0.8", "0.8", "0.8", "1", "1", "1"),
        ("1", "1", "1", "1", "1", "1"),
        ("0.8", "0.8", "0.8", "1", "1", "1"),
    )
    expected = Instance(kind=CHORES, weights=weights, costs=costs)
    text = (FIXTURES / "reference_6x6.json").read_text()
    assert parse_instance(text) == expected
    assert serialize_instance(expected) == text


def test_pinned_generator_fixture_file():
    text = (FIXTURES / "gen_n2_m2_seed0.json").read_text()
    assert parse_instance(text) == gen_random_instance(n=2, m=2, seed=0)
