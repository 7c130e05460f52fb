"""Compiling WHERE expressions into predicates.

Two outputs matter:

* a fast ``matches(row)`` callable (wrapped as a
  :class:`~repro.data.predicates.Predicate`), used by the sampling map
  tasks; and
* a canonical predicate *name*. A simple ``column = literal`` equality
  compiles to :class:`~repro.data.predicates.ColumnCompare`, whose name
  (``l_quantity=51``) coincides with the marker-predicate names the data
  generator controls — which is what lets profile-mode simulation look up
  exact match counts for Hive-issued queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.data.predicates import ColumnCompare, FunctionPredicate, Predicate
from repro.data.schema import Schema
from repro.errors import HiveAnalysisError
from repro.hive.ast import (
    Arithmetic,
    Between,
    Column,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
)

def _null_safe(op: Callable[[object, object], bool]) -> Callable[[object, object], bool]:
    """Comparisons involving NULL evaluate false (SQL WHERE semantics)."""

    def compare(a: object, b: object) -> bool:
        if a is None or b is None:
            return False
        return op(a, b)

    return compare


_COMPARE: dict[str, Callable[[object, object], bool]] = {
    "=": _null_safe(lambda a, b: a == b),
    "!=": _null_safe(lambda a, b: a != b),
    "<": _null_safe(lambda a, b: a < b),
    "<=": _null_safe(lambda a, b: a <= b),
    ">": _null_safe(lambda a, b: a > b),
    ">=": _null_safe(lambda a, b: a >= b),
}

#: Python source for each comparison operator (used by the codegen path).
_COMPARE_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def resolve_column(name: str, schema: Schema | None) -> str:
    """Map a query column reference onto a schema field name.

    Accepts exact (case-insensitive) field names and, for convenience,
    the unprefixed TPC-H style (``ORDERKEY`` for ``l_orderkey``).
    """
    if schema is None:
        return name.lower()
    lowered = name.lower()
    if lowered in schema:
        return lowered
    for field in schema.fields:
        bare = field.name.split("_", 1)[-1]
        if bare == lowered:
            return field.name
    raise HiveAnalysisError(
        f"unknown column {name!r}; table {schema.name} has "
        f"{', '.join(schema.field_names)}"
    )


def like_to_regex(pattern: str) -> re.Pattern:
    """SQL LIKE pattern (% and _) compiled to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _compile_value(expr: Expression, schema: Schema | None):
    """Compile an expression to ``fn(row) -> value``."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Column):
        column = resolve_column(expr.name, schema)
        return lambda row: row[column]
    if isinstance(expr, Arithmetic):
        left = _compile_value(expr.left, schema)
        right = _compile_value(expr.right, schema)
        op = _ARITHMETIC[expr.op]

        def arithmetic(row: Mapping):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None  # SQL: NULL propagates through arithmetic
            if expr.op in ("/", "%") and b == 0:
                raise HiveAnalysisError(f"division by zero evaluating {expr}")
            return op(a, b)

        return arithmetic
    # Boolean sub-expressions used as values (rare but legal: WHERE (a AND b)).
    boolean = _compile_bool(expr, schema)
    return boolean


def _compile_bool(expr: Expression, schema: Schema | None):
    """Compile an expression to ``fn(row) -> bool``."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            value = expr.value
            return lambda row: value
        raise HiveAnalysisError(f"{expr} is not a boolean condition")
    if isinstance(expr, LogicalAnd):
        left = _compile_bool(expr.left, schema)
        right = _compile_bool(expr.right, schema)
        return lambda row: left(row) and right(row)
    if isinstance(expr, LogicalOr):
        left = _compile_bool(expr.left, schema)
        right = _compile_bool(expr.right, schema)
        return lambda row: left(row) or right(row)
    if isinstance(expr, LogicalNot):
        operand = _compile_bool(expr.operand, schema)
        return lambda row: not operand(row)
    if isinstance(expr, Comparison):
        left = _compile_value(expr.left, schema)
        right = _compile_value(expr.right, schema)
        op = _COMPARE[expr.op]
        return lambda row: op(left(row), right(row))
    if isinstance(expr, Between):
        operand = _compile_value(expr.operand, schema)
        low = _compile_value(expr.low, schema)
        high = _compile_value(expr.high, schema)

        def between(row: Mapping) -> bool:
            value, lo, hi = operand(row), low(row), high(row)
            if value is None or lo is None or hi is None:
                return False  # NULL never matches, in either polarity
            inside = lo <= value <= hi
            return not inside if expr.negated else inside

        return between
    if isinstance(expr, InList):
        operand = _compile_value(expr.operand, schema)
        options = [_compile_value(o, schema) for o in expr.options]

        def in_list(row: Mapping) -> bool:
            value = operand(row)
            if value is None:
                return False
            found = value in {o(row) for o in options}
            return not found if expr.negated else found

        return in_list
    if isinstance(expr, Like):
        operand = _compile_value(expr.operand, schema)
        regex = like_to_regex(expr.pattern)

        def like(row: Mapping) -> bool:
            value = operand(row)
            if value is None:
                return False
            found = regex.match(str(value)) is not None
            return not found if expr.negated else found

        return like
    if isinstance(expr, IsNull):
        operand = _compile_value(expr.operand, schema)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, Column):
        raise HiveAnalysisError(
            f"bare column {expr.name!r} is not a boolean condition"
        )
    raise HiveAnalysisError(f"cannot use {expr} as a condition")


# ---------------------------------------------------------------------------
# Source codegen (the scan engine's compiled path)
# ---------------------------------------------------------------------------
def _checked_arithmetic(expr: Arithmetic) -> Callable[[float, float], float]:
    """The arithmetic kernel: NULL-propagating, with the ``/`` and ``%``
    division-by-zero check. Shared by the codegen path (as an embedded
    constant) so it matches :func:`_compile_value` exactly."""
    op = _ARITHMETIC[expr.op]
    checked = expr.op in ("/", "%")

    def apply(a: float, b: float) -> float:
        if a is None or b is None:
            return None  # SQL: NULL propagates through arithmetic
        if checked and b == 0:
            raise HiveAnalysisError(f"division by zero evaluating {expr}")
        return op(a, b)

    return apply


def _emit_value(expr: Expression, em, schema: Schema | None) -> str:
    """Render an expression as Python source for its per-row value.

    ``em`` is a :class:`repro.scan.codegen.SourceEmitter` (duck-typed:
    ``const``/``temp``/``ref``/``row_expr``).
    """
    if isinstance(expr, Literal):
        return em.const(expr.value)
    if isinstance(expr, Column):
        return em.ref(resolve_column(expr.name, schema))
    if isinstance(expr, Arithmetic):
        left = _emit_value(expr.left, em, schema)
        right = _emit_value(expr.right, em, schema)
        return f"{em.const(_checked_arithmetic(expr))}({left}, {right})"
    return emit_condition(expr, em, schema)


def emit_condition(expr: Expression, em, schema: Schema | None = None) -> str:
    """Render a boolean expression as Python source (NULL-safe).

    Mirrors :func:`_compile_bool` node for node, so the interpreted
    closures and the generated source agree row-for-row — the scan
    engine's equivalence tests cross-check exactly this pair.
    """
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "True" if expr.value else "False"
        raise HiveAnalysisError(f"{expr} is not a boolean condition")
    if isinstance(expr, LogicalAnd):
        return (
            f"({emit_condition(expr.left, em, schema)}"
            f" and {emit_condition(expr.right, em, schema)})"
        )
    if isinstance(expr, LogicalOr):
        return (
            f"({emit_condition(expr.left, em, schema)}"
            f" or {emit_condition(expr.right, em, schema)})"
        )
    if isinstance(expr, LogicalNot):
        return f"(not {emit_condition(expr.operand, em, schema)})"
    if isinstance(expr, Comparison):
        a, b = em.temp(), em.temp()
        left = _emit_value(expr.left, em, schema)
        right = _emit_value(expr.right, em, schema)
        return (
            f"(({a} := {left}) is not None and ({b} := {right}) is not None"
            f" and {a} {_COMPARE_SOURCE[expr.op]} {b})"
        )
    if isinstance(expr, Between):
        value, lo, hi = em.temp(), em.temp(), em.temp()
        inner = f"{lo} <= {value} <= {hi}"
        if expr.negated:
            inner = f"not ({inner})"
        return (
            f"(({value} := {_emit_value(expr.operand, em, schema)}) is not None"
            f" and ({lo} := {_emit_value(expr.low, em, schema)}) is not None"
            f" and ({hi} := {_emit_value(expr.high, em, schema)}) is not None"
            f" and {inner})"
        )
    if isinstance(expr, InList):
        value = em.temp()
        options = ", ".join(_emit_value(o, em, schema) for o in expr.options)
        membership = f"{value} {'not in' if expr.negated else 'in'} {{{options}}}"
        return (
            f"(({value} := {_emit_value(expr.operand, em, schema)}) is not None"
            f" and {membership})"
        )
    if isinstance(expr, Like):
        value = em.temp()
        regex = em.const(like_to_regex(expr.pattern))
        verdict = "is None" if expr.negated else "is not None"
        return (
            f"(({value} := {_emit_value(expr.operand, em, schema)}) is not None"
            f" and {regex}.match(str({value})) {verdict})"
        )
    if isinstance(expr, IsNull):
        verdict = "is not None" if expr.negated else "is None"
        return f"({_emit_value(expr.operand, em, schema)} {verdict})"
    if isinstance(expr, Column):
        raise HiveAnalysisError(
            f"bare column {expr.name!r} is not a boolean condition"
        )
    raise HiveAnalysisError(f"cannot use {expr} as a condition")


@dataclass(frozen=True)
class ExpressionPredicate(FunctionPredicate):
    """A WHERE-clause predicate that carries its AST.

    Behaves exactly like the :class:`FunctionPredicate` it extends (the
    interpreted fallback), but also implements the scan codegen hook so
    :func:`repro.scan.codegen.compile_batch_matcher` can inline the whole
    expression into the fused scan loop instead of calling ``fn`` on a
    synthesized row dict.
    """

    expression: Expression | None = None
    schema: Schema | None = None

    def _identity(self) -> tuple:
        # ``fn`` and ``label`` derive from the AST and schema, and ``fn`` is
        # a fresh closure per compile, so it stays out of the comparison:
        # two compiles of one WHERE clause share the scan matcher caches.
        # Without an AST the matcher inlines ``fn``, so ``fn`` is the identity.
        if self.expression is None:
            return self.fn, self.label
        return self.expression, self.schema

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def emit_source(self, em) -> str:
        if self.expression is None:  # pragma: no cover - defensive
            return f"bool({em.const(self.fn)}({em.row_expr}))"
        return emit_condition(self.expression, em, self.schema)


def compile_predicate(expr: Expression, schema: Schema | None = None) -> Predicate:
    """Compile a WHERE expression into a Predicate.

    Simple ``column = literal`` equalities become
    :class:`~repro.data.predicates.ColumnCompare` so their names line up
    with the generator's controlled marker predicates; everything else
    becomes an :class:`ExpressionPredicate` labeled with the SQL text,
    carrying both the interpreted closure and the AST the scan engine
    compiles to source.
    """
    simple = _as_simple_comparison(expr, schema)
    if simple is not None:
        return simple
    return ExpressionPredicate(
        fn=_compile_bool(expr, schema),
        label=str(expr),
        expression=expr,
        schema=schema,
    )


def _as_simple_comparison(
    expr: Expression, schema: Schema | None
) -> ColumnCompare | None:
    if not isinstance(expr, Comparison):
        return None
    column, literal = None, None
    op = expr.op
    if isinstance(expr.left, Column) and isinstance(expr.right, Literal):
        column, literal = expr.left, expr.right
    elif isinstance(expr.right, Column) and isinstance(expr.left, Literal):
        column, literal = expr.right, expr.left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if column is None or literal is None or literal.value is None:
        return None
    return ColumnCompare(resolve_column(column.name, schema), op, literal.value)
