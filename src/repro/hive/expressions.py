"""Compiling WHERE expressions into predicates.

Every compound condition the program runs is a WHERE tree compiled
here. Two outputs matter:

* the predicate the scan engine compiles: a simple ``column <op>
  literal`` compiles to :class:`~repro.data.predicates.ColumnCompare`;
  anything else to an :class:`ExpressionPredicate`, which carries the
  AST that :func:`emit_condition` renders into the generated scan loop,
  and an interpreted closure that the tests keep as its reference (both
  evaluate arithmetic through :func:`checked_arithmetic`); and
* a canonical predicate *name*. A ``column = literal`` equality's
  name (``l_quantity=51``) coincides with the marker-predicate names the
  data generator controls — which is what lets profile-mode simulation
  look up exact match counts for Hive-issued queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from repro.data.predicates import _OPERATORS, ColumnCompare, Predicate
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

#: Python source for each comparison operator (used by the codegen path).
_COMPARE_SOURCE = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def checked_arithmetic(op: str, a, b, text: str):
    """``a <op> b`` as SQL evaluates it: NULL if either operand is, and
    :class:`~repro.errors.HiveAnalysisError` naming the expression
    ``text`` on a ``/`` or ``%`` by zero. The interpreted closures call
    it, and the generated scan names it (by module reference, so the
    namespace pickles) with ``op`` and ``text`` in its constant pool."""
    if a is None or b is None:
        return None  # SQL: NULL propagates through arithmetic
    if op in ("/", "%") and b == 0:
        raise HiveAnalysisError(f"division by zero evaluating {text}")
    return _ARITHMETIC[op](a, b)


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
    """SQL LIKE pattern (% and _) compiled to a regex that must match the
    whole value: ``\\Z``, not ``$``, which also matches before a trailing
    newline."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + r"\Z", re.DOTALL)


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
        op, text = expr.op, str(expr)
        return lambda row: checked_arithmetic(op, left(row), right(row), text)
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
        op = _OPERATORS[expr.op]
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
# Source codegen (the scan engine's batch matcher)
# ---------------------------------------------------------------------------
def _emit_value(expr: Expression, em, schema: Schema | None) -> str:
    """Render an expression as Python source for its per-row value.

    ``em`` is a :class:`repro.scan.codegen.SourceEmitter` (duck-typed:
    ``const``/``temp``/``ref``).
    """
    if isinstance(expr, Literal):
        return em.const(expr.value)
    if isinstance(expr, Column):
        return em.ref(resolve_column(expr.name, schema))
    if isinstance(expr, Arithmetic):
        left = _emit_value(expr.left, em, schema)
        right = _emit_value(expr.right, em, schema)
        kernel, op, text = map(em.const, (checked_arithmetic, expr.op, str(expr)))
        return f"{kernel}({op}, {left}, {right}, {text})"
    return emit_condition(expr, em, schema)


def emit_condition(expr: Expression, em, schema: Schema | None = None) -> str:
    """Render a boolean expression as Python source (NULL-safe).

    Mirrors :func:`_compile_bool` node for node, so the interpreted
    closures and the generated source agree row-for-row — the scan
    equivalence tests hold the generated source to those closures.
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
class ExpressionPredicate(Predicate):
    """A WHERE-clause predicate: its AST, the schema its columns resolve
    against, and the interpreted closure ``fn`` built from them.

    The scan codegen hook :meth:`emit_source` inlines the whole
    expression into the fused scan loop of
    :func:`repro.scan.codegen.compile_batch_matcher`. ``matches`` calls
    ``fn``, which map tasks never run but the property suites keep as
    the reference for the generated scan. ``fn`` is a fresh closure per
    compile, so it stays out of equality and the hash: two compiles of
    one WHERE clause share the scan matcher caches. Every map task looks
    its matcher up in those caches, so the hash, which walks the whole
    AST, is computed once per predicate.
    """

    expression: Expression
    schema: Schema | None
    fn: Callable[[Mapping], bool] = field(compare=False, repr=False)

    @cached_property
    def name(self) -> str:
        return str(self.expression)

    @cached_property
    def _hash(self) -> int:
        return hash((self.expression, self.schema))

    def __hash__(self) -> int:
        return self._hash

    def matches(self, row: Mapping) -> bool:
        return bool(self.fn(row))

    def emit_source(self, em) -> str:
        return emit_condition(self.expression, em, self.schema)

    def __str__(self) -> str:
        return self.name


def compile_predicate(expr: Expression, schema: Schema | None = None) -> Predicate:
    """Compile a WHERE expression into a Predicate.

    Simple ``column = literal`` equalities become
    :class:`~repro.data.predicates.ColumnCompare` so their names line up
    with the generator's controlled marker predicates; everything else
    becomes an :class:`ExpressionPredicate` labeled with the SQL text,
    carrying both the interpreted closure (the tests' reference) and the
    AST the scan engine compiles to source.
    """
    simple = as_simple_comparison(expr, schema)
    if simple is not None:
        return simple
    return ExpressionPredicate(expr, schema, _compile_bool(expr, schema))


def as_simple_comparison(
    expr: Expression, schema: Schema | None
) -> ColumnCompare | None:
    """``expr`` as ``column <op> literal`` when it compares a column with
    a non-NULL literal, either side first (the scan kernel's Hive leaves
    go through here too); else None."""
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
