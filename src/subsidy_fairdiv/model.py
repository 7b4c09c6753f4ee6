"""Core domain types: instances, allocations, subsidies, and their file formats.

Every numeric quantity in this package is an exact rational
(``fractions.Fraction``).  The subsidy guarantees are exact inequalities
between rationals, so floats are rejected at every input boundary: a
certificate produced with binary floating point could not be trusted.

``Fraction``s are what crosses every boundary, and every value the package
emits is one.  Inside sorting, sums and selection the work is done on
integers instead.  Each instance writes every cost row once over the row's
least common denominator (:func:`scaled`), on first use, and keeps it:
sorting or adding those integers sorts or adds the rationals exactly, and
bid-and-take orders the agents' ratios exactly, by integer keys or by
cross-multiplying.  A row is read from its ``Fraction``s' slots in two
passes, its distinct denominators and then its integers: a few C-level
calls per row, not a Python call per entry.  Each integer row is then
sorted once into its rank order (``Instance._orders``), non-decreasing for
both kinds: validation reads the row's range from the order's two ends,
and the reduction permutes each row by its order.  Loads and shares are
integers as well: agent ``i`` with weight ``p_i / q_i`` gets the unit
``q_i * d_i`` (``Instance._units``), in which item ``e`` costs
``q_i * r_i[e]`` and the share is ``p_i * R_i``; bid-and-take's capacities
and :func:`compute_subsidies` compute in it, and so does the one pricing
kernel (``rounding._Pricer``).  :func:`parse_instance` converts each
distinct rational string of a document once.  Single integers are read
through ``Instance._reads``: agent ``i``'s for item ``e`` is
``ints[order[e]]`` of her pair ``(ints, order)``, her own row and the
item indices her rank order is sorted from (``Instance._identity``), or,
on a reduced instance (``Instance._permuted``), her source's row and
rank order.  A reduced instance keeps only that reader and its source's
``costs`` and units, and builds its ``costs`` only when read, which no
run does: a bid-and-take scan reads rows built through the reader
(``Instance._scaled_rows``).  Only ``_permuted`` and ``__getattr__``
know how it is stored.  A fractional allocation stores only the positive
fractions of each item.  Every cache of a value object (integer rows,
item indices, rank orders and reader, units, an instance's violations,
whether it is identical-ordering and its fractional stage, a reduced
instance's ``costs``, the dense view of an allocation, a subsidy total,
a certificate's verdict) is computed on first use and is invisible to
``==``, ``hash``, ``repr`` and pickling.

Every document the package emits is written by :func:`_document`, byte for
byte what ``json.dumps(doc, indent=2, sort_keys=True)`` writes, from one
list of pieces joined once; :func:`serialize_instance` hands it the cost
matrix to write one row at a time, so no string per entry of the whole
matrix is ever held.  ``json`` itself only parses.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
from math import lcm
from operator import itemgetter, le
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
_INT = {int}


def _sequence(value: Iterable, what: str, index: int | None = None) -> tuple:
    """``value`` as a tuple; a string, which would split into characters, is refused."""
    if type(value) is str:
        where = what if index is None else f"{what}[{index}]"
        raise ModelError(f"{where} must be a sequence, not a string")
    return tuple(value)


def _frac_matrix(rows: Iterable[Iterable[object]], what: str) -> tuple[tuple[Fraction, ...], ...]:
    # a row of Fractions, by far the common one, is kept as it is
    return tuple(
        row if _FRACTION.issuperset(map(type, row))
        else tuple(v if type(v) is Fraction else frac(v) for v in row)
        for row in (_sequence(row, what, i) for i, row in enumerate(rows))
    )


def scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The ``Fraction``s as integers over their least common denominator ``d``, and ``d``.

    The integers order and add exactly as the values do.  They are read
    from each ``Fraction``'s slots in two passes, the distinct denominators
    and then the integers: the public ``numerator`` and
    ``as_integer_ratio`` would cost a Python-level call per entry.  A value
    whose denominator is already ``d`` lends its own numerator object.
    """
    d = lcm(*{v._denominator for v in values})
    return tuple([
        v._numerator if v._denominator == d else v._numerator * (d // v._denominator)
        for v in values
    ]), d


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


def _shown(value: Fraction) -> str:
    """:func:`rational_text` for a message, which names the digit limit instead of raising."""
    try:
        return rational_text(value)
    except ModelError:
        return f"<a rational of more than {sys.get_int_max_str_digits()} digits>"


def _permute(row: Sequence, order: Sequence[int]) -> tuple:
    """The entries ``row[i]`` for ``i`` in ``order``, as a tuple.

    One ``itemgetter`` call per row.  An order of fewer than two items
    takes them one by one, since an ``itemgetter`` of one index returns
    the entry itself, not a tuple.
    """
    return itemgetter(*order)(row) if len(order) > 1 else tuple(map(row.__getitem__, order))


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
    The integer rows, their rank orders and reader, units, violations and
    whether it is identical-ordering are computed once, on first use, and
    so is the fractional stage of its runs (``rounding._fractional_stage``:
    the reduction, bid-and-take and the forest), shared by both methods.
    """

    kind: str
    weights: tuple[Fraction, ...]
    costs: tuple[tuple[Fraction, ...], ...]
    agent_names: tuple[str, ...] | None = None
    item_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(map(frac, _sequence(self.weights, "weights"))))
        object.__setattr__(self, "costs", _frac_matrix(self.costs, "costs"))
        for name in ("agent_names", "item_names"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _sequence(getattr(self, name), name))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        reads = self._reads
        return len(reads[0][1]) if reads else 0

    __getstate__ = _field_state

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per row, its :func:`scaled` integers ``r_i`` and denominator ``d_i``."""
        return tuple(scaled(row) for row in self.costs)

    def _scaled_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row's integers in item order, one :func:`_permute` through ``_reads``; not kept."""
        return tuple([_permute(ints, order) for ints, order in self._reads])

    @cached_property
    def _identity(self) -> tuple[int, ...]:
        """The item indices of row 0, one int each, which ``_reads`` and ``_orders`` share."""
        costs = self.costs
        return tuple(range(len(costs[0]))) if costs else ()

    @cached_property
    def _orders(self) -> tuple[tuple[int, ...], ...]:
        """Per row ``r_i``, its items in the reduced instance's order.

        The stable sort by ``r_i`` of the indices, descending for goods, so
        ties go to the smaller index for chores and to the larger for goods
        (an unknown kind sorts as chores), and an agent's favorite item is
        first for chores and last for goods.  Every row's order is sorted
        from ``_identity``, 8 bytes per entry instead of a new int each; a
        row of another length, in an invalid instance, sorts its own
        indices.  Validation reads each row's range from the two ends of
        its order.  The key is a list's ``__getitem__``, a builtin method,
        cheaper per call than a tuple's slot wrapper.
        """
        goods = self.kind == GOODS
        identity = self._identity
        shared = identity[::-1] if goods else identity
        return tuple(
            tuple(sorted(
                shared if len(ints) == len(shared) else sorted(range(len(ints)), reverse=goods),
                key=list(ints).__getitem__,
            ))
            for ints, _ in self._rows
        )

    @cached_property
    def _reads(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per agent ``(ints, order)``: her integer for item ``e`` is ``ints[order[e]]``.

        Her own row and ``_identity``, which all rows share (a ``range``
        indexes slower); a reduced instance's are set by :meth:`_permuted`.
        """
        identity = self._identity
        return tuple([(ints, identity) for ints, _ in self._rows])

    def _entry(self, agent: int, item: int) -> int:
        """``r_agent[item]``, one integer of the rows, read through ``_reads``."""
        ints, order = self._reads[agent]
        return ints[order[item]]

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

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """What :func:`validate_instance` returns, found on first use."""
        violations: list[str] = []
        if self.kind not in KINDS:
            violations.append(f"unknown kind {self.kind!r}")
        if self.n < 1:
            violations.append("instance needs at least one agent")
        row_lengths = {len(row) for row in self.costs}
        if len(self.costs) != self.n:
            violations.append(
                f"cost matrix has {len(self.costs)} rows for {self.n} agents"
            )
        if len(row_lengths) > 1:
            violations.append(f"cost rows have inconsistent lengths {sorted(row_lengths)}")
        for i, w in enumerate(self.weights):
            if w.numerator <= 0:
                violations.append(f"weight of agent {i} is {_shown(w)}, must be positive")
        weight_sum = exact_sum(self.weights)
        if self.weights and weight_sum != ONE:
            violations.append(f"weights sum to {_shown(weight_sum)}, not 1")
        # a row's range is the two ends of its non-decreasing order
        for i, (row, (ints, d), order) in enumerate(zip(self.costs, self._rows, self._orders)):
            if order and (ints[order[0]] < 0 or ints[order[-1]] > d):
                for e, p in enumerate(ints):
                    if p < 0 or p > d:
                        violations.append(
                            f"cost of item {e} for agent {i} is {_shown(row[e])}, "
                            + ("below 0" if p < 0 else "exceeds 1")
                        )
        if self.agent_names is not None and len(self.agent_names) != self.n:
            violations.append("agent_names length does not match agent count")
        if self.item_names is not None and len(self.item_names) != self.m:
            violations.append("item_names length does not match item count")
        for field, names in (("agent_names", self.agent_names), ("item_names", self.item_names)):
            if names is None:
                continue
            if not all(isinstance(name, str) for name in names):
                violations.append(f"{field} entries must be strings")
            elif not all(_encodes_as_utf8(name) for name in names):
                violations.append(f"{field} entries must be encodable as UTF-8")
        return tuple(violations)

    @cached_property
    def _ido(self) -> bool:
        """True iff every integer row is non-decreasing in item order."""
        return all(all(map(le, ints, ints[1:])) for ints, _ in self._rows)

    def _permuted(self) -> Instance:
        """This instance, validated, with row ``i`` in its rank order ``_orders[i]``.

        The result keeps only this instance's ``costs`` and the reader
        ``_reads`` of its integer rows through their orders (never the
        instance itself, which may keep the result).  A permutation changes
        no row's denominator or total and breaks no validation rule, so the
        units are carried over and the verdict is the one
        :func:`require_valid` has just reached, no violations; every row in
        its order is non-decreasing, so the result is identical-ordering by
        construction.  Its ``costs`` are built on first read, each row with
        one :func:`_permute` call.
        """
        require_valid(self)
        out = object.__new__(Instance)
        out.__dict__.update(
            kind=self.kind,
            weights=self.weights,
            agent_names=None,
            item_names=None,
            _units=self._units,
            _violations=(),
            _ido=True,
            _source_costs=self.costs,
            _reads=tuple([(ints, order) for (ints, _), order in zip(self._rows, self._orders)]),
        )
        return out

    def __getattr__(self, name: str) -> object:
        # reached only for a missing attribute: the ``costs`` of an instance
        # built by ``_permuted`` before its first read
        source = self.__dict__.get("_source_costs") if name == "costs" else None
        if source is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        costs = tuple(_permute(row, order) for row, (_, order) in zip(source, self._reads))
        object.__setattr__(self, "costs", costs)
        return costs


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
        matrix = _frac_matrix(shares, "shares")
        columns: list[list[tuple[int, Fraction]]] = [[] for _ in (matrix[0] if matrix else ())]
        for i, row in enumerate(matrix):
            if len(row) != len(columns):
                raise ModelError(
                    f"share row {i} has {len(row)} items, row 0 has {len(columns)}"
                )
            for e, x in enumerate(row):
                if x.numerator < 0:
                    raise ModelError(f"share of item {e} for agent {i} is {_shown(x)}, below 0")
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
            column[0][1] is ONE or column[0][1] == 1
            if len(column) == 1
            else exact_sum([x for _, x in column]) == 1
            for column in self.columns
        )

    def sharers(self, item: int) -> tuple[int, ...]:
        """Agents holding a positive fraction of the item, by index."""
        return tuple([a for a, _ in self.columns[item]])


@dataclass(frozen=True)
class IntegralAllocation:
    """A partition of the items: ``owner[e]`` is the receiving agent."""

    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        owner = tuple(self.owner)
        # one C-level pass over the types: a float, a string or a bool is
        # no agent index, as in :func:`parse_allocation`
        if not _INT.issuperset(map(type, owner)):
            e = next(e for e, o in enumerate(owner) if type(o) is not int)
            raise ModelError(f"owner[{e}] is {owner[e]!r}, not an agent index")
        object.__setattr__(self, "owner", owner)

    @property
    def m(self) -> int:
        return len(self.owner)

    def _bundle_ints(self, inst: Instance) -> list[int]:
        """Every agent's bundle as the sum of its row integers ``r_i``.

        Raises :class:`ModelError` unless the allocation covers the
        instance's items and every owner is one of its agents; the owners'
        range is checked in C, and the first bad item found only on failure.
        """
        owner, n = self.owner, inst.n
        if len(owner) != inst.m:
            raise ModelError(f"allocation covers {len(owner)} items, instance has {inst.m}")
        if owner and (min(owner) < 0 or max(owner) >= n):
            e = next(e for e, o in enumerate(owner) if not 0 <= o < n)
            raise ModelError(f"item {e} assigned to unknown agent {owner[e]}")
        reads = inst._reads
        sums = [0] * n
        for e, o in enumerate(owner):
            ints, order = reads[o]
            sums[o] += ints[order[e]]
        return sums

    def bundle_costs(self, inst: Instance) -> tuple[Fraction, ...]:
        """Every agent's bundle cost, from one pass over ``owner``.

        Each ``d_i`` is the unit ``q_i * d_i`` over ``q_i``.  Raises
        :class:`ModelError` as :func:`compute_subsidies` does.
        """
        units = zip(self._bundle_ints(inst), inst._units)
        return tuple(Fraction(s, unit // q) for s, (q, _, unit) in units)


@dataclass(frozen=True)
class SubsidyVector:
    """Per-agent subsidies; always the pointwise minimum achieving WPROPS."""

    amounts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "amounts", tuple(map(frac, _sequence(self.amounts, "amounts"))))

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
    Raises :class:`ModelError` unless the allocation covers the instance's
    items and every owner is one of its agents.
    """
    sign = 1 if inst.kind == CHORES else -1
    amounts = []
    for load, (q, share, unit) in zip(alloc._bundle_ints(inst), inst._units):
        gap = sign * (q * load - share)
        amounts.append(Fraction(gap, unit) if gap > 0 else ZERO)
    return SubsidyVector(tuple(amounts))


def validate_instance(inst: Instance) -> tuple[str, ...]:
    """Every violated instance invariant, as one message each.

    The tuple is empty exactly when the instance is valid.  An all-zero
    cost row is valid: that agent's share is zero.  It is found once per
    instance and kept, like the integer rows.
    """
    return inst._violations


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

class _RationalRows:
    """A matrix of rationals that :func:`_document` writes one row at a time."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Fraction]]) -> None:
        self.rows = rows


def _document(doc: dict[str, object]) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The document's pieces go into one flat list, joined once; an array of
    strings or ints is joined in C.  Only what the package's documents
    hold is accepted: dicts with ``str`` keys, lists, tuples, strings,
    ints, booleans, ``None`` and the rows of :class:`_RationalRows`.  Any
    other value, a float or a ``Fraction`` included, raises ``TypeError``.
    """
    out: list[str] = []
    _put(out, doc, "\n")
    out.append("\n")
    return "".join(out)


def _put(out: list[str], value: object, pad: str) -> None:
    """Append ``value``'s pieces; ``pad`` is a newline and the current indent."""
    if isinstance(value, str):
        out.append(_json_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, got {key!r}")
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            # a certificate repeats a few keys at one indent thousands of
            # times; interning keeps one copy of each such piece
            out.append(sys.intern(f"{sep}{_json_string(key)}: "))
            _put(out, value[key], inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= {str}:  # the empty array too
            _put_array(out, map(_json_string, value), pad)
        elif kinds == {int}:
            _put_array(out, map(int.__repr__, value), pad)
        else:
            inner = pad + "  "
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _put(out, item, inner)
                sep = "," + inner
            out.append(pad + "]")
    elif type(value) is _RationalRows:
        if not value.rows:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for row in value.rows:
            out.append(sep)
            _put_array(out, map(_json_string, map(rational_text, row)), inner)
            sep = "," + inner
        out.append(pad + "]")
    else:
        raise TypeError(f"not a document value: {type(value).__name__}")


def _put_array(out: list[str], texts: Iterable[str], pad: str) -> None:
    """Append an array of scalars already written as ``texts``."""
    inner = pad + "  "
    joined = ("," + inner).join(texts)  # empty only for an empty array
    out += ("[", inner, joined, pad, "]") if joined else ("[]",)


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


def _exact_row(raw: list, where: str, memo: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """The entries of array ``where`` as ``Fraction``s, each distinct string converted once.

    ``memo`` maps each string converted so far to its ``Fraction``; an entry
    that is not a ``str`` never reads or fills it, so JSON ``true`` cannot
    pass for ``"1"``.  A field name such as ``costs[i][e]`` is formatted only
    for an entry that is converted.
    """
    row = []
    for e, value in enumerate(raw):
        if type(value) is not str:
            x = _exact_field(value, f"{where}[{e}]")
        elif (x := memo.get(value)) is None:
            x = memo[value] = _exact_field(value, f"{where}[{e}]")
        row.append(x)
    return tuple(row)


def parse_instance(text: str) -> Instance:
    """Parse and validate the canonical instance document.

    Fields: ``kind``, ``weights`` (rational strings), ``costs`` (n rows
    of m rational strings), optional ``agent_names`` / ``item_names``.
    Rational strings may be "p/q" or exact decimals like "0.7"; each
    distinct string is converted once per document, and the entries that
    repeat it share its ``Fraction``.  Only the document's shape is checked
    here; :func:`validate_instance` holds every rule about the values.
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
    memo: dict[str, Fraction] = {}
    inst = Instance(
        kind=kind,
        weights=_exact_row(raw_weights, "weights", memo),
        costs=tuple(
            _exact_row(row, f"costs[{i}]", memo) for i, row in enumerate(raw_costs)
        ),
        agent_names=agent_names,
        item_names=item_names,
    )
    require_valid(inst)
    return inst


def serialize_instance(inst: Instance) -> str:
    """Emit the canonical document: lowest-terms strings, LF endings.

    The cost matrix becomes text one row at a time, as the writer reaches it.
    """
    doc: dict[str, object] = {
        "kind": inst.kind,
        "weights": [rational_text(w) for w in inst.weights],
        "costs": _RationalRows(inst.costs),
    }
    if inst.agent_names is not None:
        doc["agent_names"] = inst.agent_names
    if inst.item_names is not None:
        doc["item_names"] = inst.item_names
    return _document(doc)


def parse_allocation(text: str) -> tuple[IntegralAllocation, SubsidyVector | None]:
    """Parse an allocation document: ``owner`` plus optional ``subsidies``.

    A subsidy is paid to an agent, so a negative entry is refused.
    """
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
        amounts = tuple(_exact_field(s, f"subsidies[{i}]") for i, s in enumerate(raw))
        for i, s in enumerate(amounts):
            if s < 0:
                raise ModelError(f"subsidies[{i}]: {_shown(s)} is negative")
        subsidies = SubsidyVector(amounts)
    return IntegralAllocation(tuple(owner)), subsidies


def serialize_allocation(
    alloc: IntegralAllocation,
    subsidies: SubsidyVector | None = None,
    extra: dict[str, object] | None = None,
) -> str:
    """The allocation document: owners, subsidies and their total, plus ``extra``.

    ``extra`` holds JSON values only: ``str`` keys, lists, tuples,
    strings, ints, booleans and ``None``.  A float is refused with
    ``TypeError``, as floats are refused on input; write a rational with
    :func:`rational_text` (and a decimal with :func:`format_decimal`).  A
    key the document already holds is refused with :class:`ModelError`.
    """
    doc: dict[str, object] = {"owner": list(alloc.owner)}
    if subsidies is not None:
        doc["subsidies"] = [rational_text(s) for s in subsidies.amounts]
        doc["total_subsidy"] = rational_text(subsidies.total)
    if extra:
        for key in extra:
            if key in doc:
                raise ModelError(f"extra field {key!r} would overwrite the document's own")
        doc.update(extra)
    return _document(doc)


def format_decimal(value: Fraction, digits: int) -> str:
    """Round a rational to a fixed-point decimal string (display only).

    The whole part and the ``digits`` fraction digits are written as two
    integers, so any count up to the interpreter's digit limit is writable.
    """
    if digits < 0:
        raise ModelError("decimal digits must be non-negative")
    sign = "-" if value < 0 else ""
    scaled = abs(value) * Fraction(10) ** digits
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    whole, fraction = divmod(whole, 10**digits)
    if digits == 0:
        return sign + rational_text(whole)
    return f"{sign}{rational_text(whole)}.{rational_text(fraction).rjust(digits, '0')}"
