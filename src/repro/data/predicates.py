"""Predicate objects.

Two concerns meet here:

1. *Evaluation* — the program builds three leaf predicates here:
   :class:`ColumnCompare` (a ``column <op> literal`` WHERE clause),
   :class:`MarkerEquals` and :class:`TruePredicate` (plain scans). Every
   compound condition is a HiveQL WHERE tree, which
   :func:`repro.hive.expressions.compile_predicate` wraps in an
   ``ExpressionPredicate``. Map tasks run the source the scan engine
   generates from a predicate (:mod:`repro.scan.codegen`); ``matches(row)``
   is the reference the tests hold that source to.
2. *Controlled generation* — the paper's experiments fix overall predicate
   selectivity at exactly 0.05% and control the per-partition placement of
   matching records. :class:`MarkerEquals` supports that: it matches a
   marker value placed just outside a column's normal TPC-H domain, so the
   generator can mint matching and non-matching rows at will.

The paper's Table III (one predicate per skew level) does not print the
concrete predicates; :func:`predicate_for_skew` defines our substitution
(documented in DESIGN.md section 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.data.record import Row
from repro.errors import DataGenerationError

PAPER_SELECTIVITY = 0.0005
"""Overall fraction of matching records in every experiment (0.05%)."""

def _null_safe(op: Callable[[object, object], bool]) -> Callable[[object, object], bool]:
    """SQL comparison semantics: any comparison against NULL is not true.

    Without the guard, ``None != x`` would be *true* under Python and the
    ordering operators would raise ``TypeError``; with it, every operator
    uniformly evaluates false when either operand is NULL (three-valued
    logic collapsed to false at the comparison, the usual WHERE-clause
    treatment).
    """

    def compare(a: object, b: object) -> bool:
        if a is None or b is None:
            return False
        return op(a, b)

    return compare


_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": _null_safe(lambda a, b: a == b),
    "!=": _null_safe(lambda a, b: a != b),
    "<": _null_safe(lambda a, b: a < b),
    "<=": _null_safe(lambda a, b: a <= b),
    ">": _null_safe(lambda a, b: a > b),
    ">=": _null_safe(lambda a, b: a >= b),
}


class Predicate:
    """Base class: a boolean condition over a row."""

    name: str = "predicate"

    def matches(self, row: Mapping) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (used for plain scans)."""

    name: str = "true"

    def matches(self, row: Mapping) -> bool:
        return True

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class ColumnCompare(Predicate):
    """``column <op> literal`` for op in ``= != < <= > >=``."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise DataGenerationError(f"unsupported comparison operator {self.op!r}")

    @property
    def name(self) -> str:
        return f"{self.column}{self.op}{self.value}"

    def matches(self, row: Mapping) -> bool:
        return _OPERATORS[self.op](row[self.column], self.value)

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class MarkerEquals(Predicate):
    """``column = marker`` where ``marker`` lies outside the column's
    normal generated domain.

    Because no organically generated row carries the marker, the data
    builder controls selectivity and placement exactly: it stamps the
    marker onto designated rows (:meth:`make_matching`) and leaves all
    other rows untouched (they cannot match by construction).
    """

    column: str
    marker: object

    @property
    def name(self) -> str:
        return f"{self.column}={self.marker}"

    def matches(self, row: Mapping) -> bool:
        return _OPERATORS["="](row[self.column], self.marker)

    def make_matching(self, row: Row) -> Row:
        """Stamp the marker onto ``row`` (in place) and return it."""
        row[self.column] = self.marker
        return row

    def ensure_non_matching(self, row: Row, rng: random.Random) -> Row:
        """Guarantee ``row`` does not match (no-op for marker values by design)."""
        if row[self.column] == self.marker:
            raise DataGenerationError(
                f"generator produced marker value {self.marker!r} organically "
                f"for column {self.column}; marker domain is not disjoint"
            )
        return row

    def __str__(self) -> str:
        return f"{self.column} = {self.marker!r}"


# ---------------------------------------------------------------------------
# The paper's Table III predicates (our substitution; see DESIGN.md §3).
# Marker values sit one notch outside each column's TPC-H domain:
#   l_discount in {0.00..0.10}  -> marker 0.11
#   l_tax      in {0.00..0.08}  -> marker 0.09
#   l_quantity in {1..50}       -> marker 51
# ---------------------------------------------------------------------------
_SKEW_PREDICATES: dict[int, MarkerEquals] = {
    0: MarkerEquals("l_discount", 0.11),
    1: MarkerEquals("l_tax", 0.09),
    2: MarkerEquals("l_quantity", 51),
}


def predicate_for_skew(z: int | float) -> MarkerEquals:
    """The Table III predicate associated with Zipf exponent ``z`` (0, 1 or 2)."""
    key = int(z)
    if key != z or key not in _SKEW_PREDICATES:
        raise DataGenerationError(
            f"no Table III predicate for skew z={z}; choose z in {sorted(_SKEW_PREDICATES)}"
        )
    return _SKEW_PREDICATES[key]
