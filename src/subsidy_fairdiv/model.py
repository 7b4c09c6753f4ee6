"""Core domain types: instances, allocations, subsidies, and their file formats.

Every numeric quantity in this package is an exact rational
(``fractions.Fraction``).  The subsidy guarantees are exact inequalities
between rationals, so floats are rejected at every input boundary: a
certificate produced with binary floating point could not be trusted.

``Fraction``s are what crosses every boundary, and every value the
package emits is one.  Inside sorting, sums and selection the work is done
on integers instead.  Each instance writes every cost row once over the
row's least common denominator (:func:`scaled`), on first use, and keeps
it: sorting or adding those integers sorts or adds the rationals exactly,
and bid-and-take compares two ratios by cross-multiplying them.  Loads and
shares are integers as well: agent ``i`` with weight ``p_i / q_i`` gets the
unit ``q_i * d_i`` (``Instance._units``), in which item ``e`` costs
``q_i * r_i[e]`` and the share is ``p_i * R_i``; bid-and-take's capacities,
subsidy gaps, component prices and the brute-force oracle compute in it.
The reduction hands the integer rows and units of an instance, permuted,
to the reduced instance.  A fractional allocation stores only the positive
fractions of each item.  Every cache of a value object (integer rows, row
totals, shares, units, the dense view of an allocation, a subsidy total)
is computed on first use and is invisible to ``==``, ``hash``, ``repr``
and pickling.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

CHORES = "chores"
GOODS = "goods"
KINDS = (CHORES, GOODS)

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """Malformed instance, allocation, or serialized document."""


# Python's default limit on the digits of an int converted from or to a
# string.  A decimal exponent beyond it builds a number that can never be
# written back out, and building it costs time that grows with the exponent.
MAX_EXPONENT = 4300


def _exponent_too_large(text: str) -> bool:
    _, marker, exponent = text.lower().partition("e")
    try:
        return bool(marker) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        return False  # malformed: Fraction rejects it


def frac(value: int | str | Fraction) -> Fraction:
    """Convert a value to an exact ``Fraction``.

    Accepts ints, Fractions, and strings like ``"3"``, ``"7/10"`` or
    ``"0.7"``.  Decimal strings convert exactly (power-of-ten
    denominators).  Floats are rejected: ``0.7`` as a float is not 7/10,
    and so is a decimal exponent above ``MAX_EXPONENT`` in magnitude.
    """
    if isinstance(value, bool):
        raise ModelError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _exponent_too_large(text):
            raise ModelError(f"exponent beyond {MAX_EXPONENT} in magnitude: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise ModelError(
            f"floats are inexact, got {value!r}; pass a string such as \"{value}\""
        )
    raise ModelError(f"not a rational: {value!r}")


_FRACTION = {Fraction}


def _frac_matrix(rows: Iterable[Iterable[object]]) -> tuple[tuple[Fraction, ...], ...]:
    # a row of Fractions, by far the common one, is kept as it is
    return tuple(
        row if _FRACTION.issuperset(map(type, row))
        else tuple(v if type(v) is Fraction else frac(v) for v in row)
        for row in map(tuple, rows)
    )


def scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values as integers over their least common denominator ``d``, and ``d``.

    The integers order and add exactly as the values do.  A value whose
    denominator is already ``d`` lends its own numerator object.
    """
    ratios = [v.as_integer_ratio() for v in values]
    d = lcm(*[q for _, q in ratios])
    return tuple([p if q == d else p * (d // q) for p, q in ratios]), d


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """The sum of the values, added as integers over one denominator."""
    ints, d = scaled(values)
    return Fraction(sum(ints), d)


def rational_text(value: Fraction | int) -> str:
    """``"p/q"`` (or integer) text of a rational for an output document.

    Raises :class:`ModelError` when ``p`` or ``q`` has more digits than the
    interpreter converts to text, instead of a bare ``ValueError``.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise ModelError(
            "a rational is too long to write: its numerator or denominator has "
            f"more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _field_state(self) -> dict[str, object]:
    """Pickle state of a value object: its fields, never its caches."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Instance:
    """An allocation instance: agents with weights, items with costs/values.

    ``costs[i][e]`` is agent ``i``'s cost (chores) or value (goods) for
    item ``e``.  Weights must be positive and sum to one exactly; every
    cost must lie in [0, 1].  :func:`validate_instance` lists the rules
    an instance breaks, and :func:`require_valid` raises on any of them.
    The integer rows and units are computed once, on first use.
    """

    kind: str
    weights: tuple[Fraction, ...]
    costs: tuple[tuple[Fraction, ...], ...]
    agent_names: tuple[str, ...] | None = None
    item_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(frac(w) for w in self.weights))
        object.__setattr__(self, "costs", _frac_matrix(self.costs))
        if self.agent_names is not None:
            object.__setattr__(self, "agent_names", tuple(self.agent_names))
        if self.item_names is not None:
            object.__setattr__(self, "item_names", tuple(self.item_names))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    __getstate__ = _field_state

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per row, its :func:`scaled` integers ``r_i`` and denominator ``d_i``."""
        return tuple(scaled(row) for row in self.costs)

    @cached_property
    def _units(self) -> tuple[tuple[int, int, int], ...]:
        """Per agent ``i``, ``(q_i, p_i * R_i, q_i * d_i)``.

        With weight ``p_i / q_i`` in lowest terms and ``R_i = sum(r_i)``: over
        the unit ``q_i * d_i``, item ``e`` costs ``q_i * r_i[e]`` and the
        share is ``p_i * R_i``, so loads and shares compare as integers.
        """
        return tuple(
            (q, p * sum(ints), q * d)
            for (p, q), (ints, d) in zip(
                (w.as_integer_ratio() for w in self.weights), self._rows
            )
        )

    def _permuted(self, orders: Iterable[Iterable[int]]) -> Instance:
        """This instance with row ``i`` listing its items in ``orders[i]``.

        A permutation changes neither a row's denominator nor its total, so
        the integer rows and units are carried over, not recomputed.
        """
        costs, rows = [], []
        for order, row, (ints, d) in zip(orders, self.costs, self._rows):
            order = list(order)
            costs.append(tuple([row[e] for e in order]))
            rows.append((tuple([ints[e] for e in order]), d))
        out = Instance(kind=self.kind, weights=self.weights, costs=tuple(costs))
        out.__dict__.update(_rows=tuple(rows), _units=self._units)
        return out

    def total_cost(self, agent: int) -> Fraction:
        """c_i(M): the agent's cost (or value) for the whole item set."""
        ints, d = self._rows[agent]
        return Fraction(sum(ints), d)


def wprop_share(inst: Instance, agent: int) -> Fraction:
    """The agent's weighted proportional share ``w_i * c_i(M)``."""
    if not 0 <= agent < inst.n:
        raise IndexError(f"agent index {agent} out of range for n={inst.n}")
    _, share, unit = inst._units[agent]
    return Fraction(share, unit)


@dataclass(frozen=True, init=False)
class FractionalAllocation:
    """A complete fractional allocation of ``m`` items to ``n`` agents.

    ``columns[e]`` holds the ``(agent, fraction)`` pairs of item ``e`` with
    a positive fraction, by agent index.  Built from a dense matrix
    ``shares[i][e]`` in [0, 1]; ``shares`` is that dense view again,
    built on first use.
    """

    # not init fields: ``dataclasses.replace(alloc, shares=...)`` builds
    # from a dense matrix, as the constructor does
    n: int = field(init=False)
    columns: tuple[tuple[tuple[int, Fraction], ...], ...] = field(init=False)

    def __init__(self, shares: Iterable[Iterable[object]]) -> None:
        matrix = _frac_matrix(shares)
        columns: list[list[tuple[int, Fraction]]] = [
            [] for _ in (matrix[0] if matrix else ())
        ]
        for i, row in enumerate(matrix):
            for e, x in enumerate(row):
                if x.numerator < 0:
                    raise ModelError(f"share of item {e} for agent {i} is {x}, below 0")
                if x.numerator:
                    columns[e].append((i, x))
        object.__setattr__(self, "n", len(matrix))
        object.__setattr__(self, "columns", tuple(map(tuple, columns)))

    @classmethod
    def _from_columns(
        cls, n: int, columns: tuple[tuple[tuple[int, Fraction], ...], ...]
    ) -> FractionalAllocation:
        """The allocation with these columns, taken as they are."""
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "n", n)
        object.__setattr__(alloc, "columns", columns)
        return alloc

    __getstate__ = _field_state

    @cached_property
    def shares(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense matrix: ``shares[i][e]`` is agent ``i``'s fraction of item ``e``."""
        rows = [[ZERO] * self.m for _ in range(self.n)]
        for e, column in enumerate(self.columns):
            for agent, x in column:
                rows[agent][e] = x
        return tuple(map(tuple, rows))

    @property
    def m(self) -> int:
        return len(self.columns)

    def is_complete(self) -> bool:
        """Every item's fractions sum to one; a lone holder must hold all of it."""
        return all(
            column[0][1] == ONE if len(column) == 1 else sum(x for _, x in column) == ONE
            for column in self.columns
        )

    def sharers(self, item: int) -> tuple[int, ...]:
        """Agents holding a positive fraction of the item, by index."""
        return tuple([a for a, _ in self.columns[item]])

    def agent_load(self, inst: Instance, agent: int) -> Fraction:
        """c_i(x_i): cost (or value) of the agent's fractional bundle."""
        costs = inst.costs[agent]
        held = ((e, x) for e, column in enumerate(self.columns) for a, x in column if a == agent)
        return sum((x * costs[e] for e, x in held), ZERO)


@dataclass(frozen=True)
class IntegralAllocation:
    """A partition of the items: ``owner[e]`` is the receiving agent."""

    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(int(o) for o in self.owner))

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundle_cost(self, inst: Instance, agent: int) -> Fraction:
        costs = inst.costs[agent]
        return sum((costs[e] for e, o in enumerate(self.owner) if o == agent), ZERO)

    def _bundle_ints(self, inst: Instance) -> list[int]:
        """Every agent's bundle as the sum of its row integers ``r_i``."""
        rows = inst._rows
        sums = [0] * inst.n
        for e, o in enumerate(self.owner):
            sums[o] += rows[o][0][e]
        return sums

    def bundle_costs(self, inst: Instance) -> tuple[Fraction, ...]:
        """Every agent's bundle cost, from one pass over ``owner``."""
        return tuple(
            Fraction(s, d) for s, (_, d) in zip(self._bundle_ints(inst), inst._rows)
        )


@dataclass(frozen=True)
class SubsidyVector:
    """Per-agent subsidies; always the pointwise minimum achieving WPROPS."""

    amounts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "amounts", tuple(frac(a) for a in self.amounts))

    __getstate__ = _field_state

    @cached_property
    def total(self) -> Fraction:
        return exact_sum(self.amounts)


def compute_subsidies(inst: Instance, alloc: IntegralAllocation) -> SubsidyVector:
    """Minimum subsidies making the allocation weighted-proportional.

    Chores: ``s_i = max(c_i(X_i) - share_i, 0)``.
    Goods:  ``s_i = max(share_i - v_i(X_i), 0)``.

    Each gap is ``+-(q_i * sum(r_i[X_i]) - p_i * R_i)`` over ``q_i * d_i``
    (see ``Instance._units``); only a positive one becomes a ``Fraction``.
    """
    if alloc.m != inst.m:
        raise ModelError(
            f"allocation covers {alloc.m} items, instance has {inst.m}"
        )
    for e, o in enumerate(alloc.owner):
        if not 0 <= o < inst.n:
            raise ModelError(f"item {e} assigned to unknown agent {o}")
    sign = 1 if inst.kind == CHORES else -1
    amounts = []
    for load, (q, share, unit) in zip(alloc._bundle_ints(inst), inst._units):
        gap = sign * (q * load - share)
        amounts.append(Fraction(gap, unit) if gap > 0 else ZERO)
    return SubsidyVector(tuple(amounts))


def validate_instance(inst: Instance) -> tuple[str, ...]:
    """Every violated instance invariant, as one message each.

    The tuple is empty exactly when the instance is valid.  An all-zero
    cost row is valid: that agent's share is zero.
    """
    violations: list[str] = []
    if inst.kind not in KINDS:
        violations.append(f"unknown kind {inst.kind!r}")
    if inst.n < 1:
        violations.append("instance needs at least one agent")
    row_lengths = {len(row) for row in inst.costs}
    if len(inst.costs) != inst.n:
        violations.append(
            f"cost matrix has {len(inst.costs)} rows for {inst.n} agents"
        )
    if len(row_lengths) > 1:
        violations.append(f"cost rows have inconsistent lengths {sorted(row_lengths)}")
    for i, w in enumerate(inst.weights):
        if w.numerator <= 0:
            violations.append(f"weight of agent {i} is {w}, must be positive")
    weight_sum = exact_sum(inst.weights)
    if inst.weights and weight_sum != ONE:
        violations.append(f"weights sum to {weight_sum}, not 1")
    for i, (row, (ints, d)) in enumerate(zip(inst.costs, inst._rows)):
        if ints and (min(ints) < 0 or max(ints) > d):
            for e, p in enumerate(ints):
                if p < 0:
                    violations.append(f"cost of item {e} for agent {i} is {row[e]}, below 0")
                elif p > d:
                    violations.append(f"cost of item {e} for agent {i} is {row[e]}, exceeds 1")
    if inst.agent_names is not None and len(inst.agent_names) != inst.n:
        violations.append("agent_names length does not match agent count")
    if inst.item_names is not None and len(inst.item_names) != inst.m:
        violations.append("item_names length does not match item count")
    for field, names in (("agent_names", inst.agent_names), ("item_names", inst.item_names)):
        if names is None:
            continue
        if not all(isinstance(name, str) for name in names):
            violations.append(f"{field} entries must be strings")
        elif not all(_encodes_as_utf8(name) for name in names):
            violations.append(f"{field} entries must be encodable as UTF-8")
    return tuple(violations)


def _encodes_as_utf8(text: str) -> bool:
    """False for a string holding a lone surrogate, the one thing UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def require_valid(inst: Instance) -> None:
    violations = validate_instance(inst)
    if violations:
        raise ModelError("invalid instance: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# Canonical file format (JSON, exact rational strings, LF line endings)
# ---------------------------------------------------------------------------

def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{what}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, integer too long
        raise ModelError(f"{what}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"{what}: top-level value must be an object")
    return doc


def _exact_field(value: object, where: str) -> Fraction:
    if isinstance(value, float):
        raise ModelError(
            f"{where}: float literals are inexact; write the number as a string"
        )
    try:
        return frac(value)  # type: ignore[arg-type]
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from exc


def parse_instance(text: str) -> Instance:
    """Parse and validate the canonical instance document.

    Fields: ``kind``, ``weights`` (rational strings), ``costs`` (n rows
    of m rational strings), optional ``agent_names`` / ``item_names``.
    Rational strings may be "p/q" or exact decimals like "0.7".  Only
    the document's shape is checked here; :func:`validate_instance`
    holds every rule about the values.
    """
    doc = _load_json(text, "instance")
    try:
        kind = doc["kind"]
        raw_weights = doc["weights"]
        raw_costs = doc["costs"]
    except KeyError as exc:
        raise ModelError(f"instance: missing field {exc.args[0]!r}") from exc
    agent_names = doc.get("agent_names")
    item_names = doc.get("item_names")
    if not isinstance(raw_weights, list) or not isinstance(raw_costs, list):
        raise ModelError("instance: weights and costs must be arrays")
    for i, row in enumerate(raw_costs):
        if not isinstance(row, list):
            raise ModelError(f"costs[{i}]: must be an array")
    if any(v is not None and not isinstance(v, list) for v in (agent_names, item_names)):
        raise ModelError("instance: agent_names and item_names must be arrays")
    inst = Instance(
        kind=kind,
        weights=tuple(_exact_field(w, f"weights[{i}]") for i, w in enumerate(raw_weights)),
        costs=tuple(
            tuple(_exact_field(c, f"costs[{i}][{e}]") for e, c in enumerate(row))
            for i, row in enumerate(raw_costs)
        ),
        agent_names=agent_names,
        item_names=item_names,
    )
    require_valid(inst)
    return inst


def serialize_instance(inst: Instance) -> str:
    """Emit the canonical document: lowest-terms strings, LF endings."""
    doc: dict[str, object] = {
        "kind": inst.kind,
        "weights": [rational_text(w) for w in inst.weights],
        "costs": [[rational_text(c) for c in row] for row in inst.costs],
    }
    if inst.agent_names is not None:
        doc["agent_names"] = list(inst.agent_names)
    if inst.item_names is not None:
        doc["item_names"] = list(inst.item_names)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_allocation(text: str) -> tuple[IntegralAllocation, SubsidyVector | None]:
    """Parse an allocation document: ``owner`` plus optional ``subsidies``."""
    doc = _load_json(text, "allocation")
    owner = doc.get("owner")
    # JSON booleans are ints to Python; no writer produces them as owners
    if not isinstance(owner, list) or not all(type(o) is int for o in owner):
        raise ModelError("allocation: owner must be an array of agent indices")
    subsidies = None
    if "subsidies" in doc:
        raw = doc["subsidies"]
        if not isinstance(raw, list):
            raise ModelError("allocation: subsidies must be an array")
        subsidies = SubsidyVector(
            tuple(_exact_field(s, f"subsidies[{i}]") for i, s in enumerate(raw))
        )
    return IntegralAllocation(tuple(owner)), subsidies


def serialize_allocation(
    alloc: IntegralAllocation,
    subsidies: SubsidyVector | None = None,
    extra: dict[str, object] | None = None,
    decimal_digits: int | None = None,
) -> str:
    """The allocation document: owners, subsidies and their total, plus ``extra``.

    With ``decimal_digits`` the total is also rendered as a fixed-point
    decimal under ``total_subsidy_decimal``.
    """
    doc: dict[str, object] = {"owner": list(alloc.owner)}
    if subsidies is not None:
        doc["subsidies"] = [rational_text(s) for s in subsidies.amounts]
        doc["total_subsidy"] = rational_text(subsidies.total)
        if decimal_digits is not None:
            doc["total_subsidy_decimal"] = format_decimal(subsidies.total, decimal_digits)
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_decimal(value: Fraction, digits: int) -> str:
    """Round a rational to a fixed-point decimal string (display only)."""
    if digits < 0:
        raise ModelError("decimal digits must be non-negative")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * Fraction(10) ** digits
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    text = rational_text(whole).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
