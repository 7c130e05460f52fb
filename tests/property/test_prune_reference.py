"""The interpreted zone-map walker, kept as the compiled test's reference.

:mod:`repro.scan.prune` compiles a predicate once per job into closures
over a split's stats. This module keeps the walker it replaced, which
re-walked the predicate for every split, and requires the compiled test
to answer exactly as it does: the same ``(may_match, matches_all)`` pair
and the same ``estimate_matches`` float, by ``==``, for random core
trees (comparisons under AND/OR/NOT, as ``test_prune_soundness`` draws
them) and random Hive WHERE clauses over partitions with NULLs, empty,
all-NULL and single-valued columns, and blooms present, dropped past
their distinct cap, or refuting a literal inside the zone-map range.
The walker is kept as it was but for one amendment: ``NOT BETWEEN`` and
``NOT IN`` follow the scan engine, which never matches them on NULL.
The module also extends pruning soundness to Hive ASTs: a partition the
compiled test prunes holds no row the scan engine's batch matcher finds.
"""

from __future__ import annotations

from typing import Mapping

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.predicates import (
    _OPERATORS,
    ColumnCompare,
    MarkerEquals,
    Predicate,
    TruePredicate,
)
from repro.data.tpch import LINEITEM_SCHEMA
from repro.errors import HiveAnalysisError
from repro.hive.ast import Column, Comparison, Literal, LogicalAnd
from repro.hive.expressions import ExpressionPredicate, compile_predicate
from repro.hive.parser import parse_statement
from repro.scan.codegen import compile_batch_matcher
from repro.scan.mmapstore import ColumnStats, collect_column_stats
from repro.scan.prune import estimate_matches, matches_all, may_match

from .test_prune_soundness import trees

_EQ_SELECTIVITY = 0.05
_DEFAULT_SELECTIVITY = 0.3
_MAYBE = (True, False)


# ---------------------------------------------------------------------------
# The reference: the interpreted walker
# ---------------------------------------------------------------------------
def partition_rows(stats: Mapping[str, ColumnStats]) -> int:
    """Row count of the partition the stats describe."""
    for column_stats in stats.values():
        return column_stats.row_count
    return 0


def _compare(stats: ColumnStats, op: str, value) -> tuple[bool, bool]:
    """(may, all) for ``column <op> literal`` under SQL NULL semantics."""
    if stats.row_count == 0:
        return False, True  # vacuous: no rows to match, and all of them do
    if value is None:
        return False, False  # comparison against a NULL literal is never true
    if stats.non_null_count <= 0:
        return False, False  # all-NULL column: every comparison is false
    null_free = stats.null_count == 0

    if op == "=" and stats.bloom is not None and not stats.bloom.might_contain(value):
        return False, False
    if op == "!=" and stats.bloom is not None and not stats.bloom.might_contain(value):
        return True, null_free  # value provably absent: every non-NULL row differs

    if not stats.has_minmax:
        return _MAYBE
    low, high = stats.min_value, stats.max_value
    try:
        if op == "=":
            return (
                low <= value <= high,
                null_free and low == value and high == value,
            )
        if op == "!=":
            return (
                not (low == value and high == value),
                null_free and (value < low or value > high),
            )
        if op == "<":
            return low < value, null_free and high < value
        if op == "<=":
            return low <= value, null_free and high <= value
        if op == ">":
            return high > value, null_free and low > value
        if op == ">=":
            return high >= value, null_free and low >= value
    except TypeError:
        # Incomparable types (str bound vs int literal, ...): the scan
        # itself decides; never prune on a comparison we cannot perform.
        return _MAYBE
    return _MAYBE


def _column_compare(
    stats: Mapping[str, ColumnStats], column: str, op: str, value
) -> tuple[bool, bool]:
    column_stats = stats.get(column)
    if column_stats is None:
        return _MAYBE
    return _compare(column_stats, op, value)


def _analyze(predicate: Predicate, stats: Mapping[str, ColumnStats]) -> tuple[bool, bool]:
    if isinstance(predicate, TruePredicate):
        return True, True
    if isinstance(predicate, MarkerEquals):
        return _column_compare(stats, predicate.column, "=", predicate.marker)
    if isinstance(predicate, ColumnCompare):
        return _column_compare(stats, predicate.column, predicate.op, predicate.value)
    # ExpressionPredicate (duck-typed to avoid importing the hive layer's
    # concrete class here): carries the original WHERE AST + schema.
    expression = getattr(predicate, "expression", None)
    if expression is not None:
        return _analyze_expr(expression, stats, getattr(predicate, "schema", None))
    # Any other predicate type: never prune.
    return _MAYBE


def _resolve(name: str, stats: Mapping[str, ColumnStats], schema) -> str | None:
    from repro.errors import HiveAnalysisError
    from repro.hive.expressions import resolve_column

    try:
        resolved = resolve_column(name, schema)
    except HiveAnalysisError:
        return None
    return resolved if resolved in stats else None


def _simple_comparison(expr, schema):
    """(column_name, op, literal) with the literal on the right, or None."""
    from repro.hive import ast

    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(expr.left, ast.Column) and isinstance(expr.right, ast.Literal):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.left, ast.Literal) and isinstance(expr.right, ast.Column):
        return expr.right.name, flip[expr.op], expr.left.value
    return None


def _analyze_expr(expr, stats: Mapping[str, ColumnStats], schema) -> tuple[bool, bool]:
    from repro.hive import ast

    if isinstance(expr, ast.Literal):
        # A constant WHERE clause: NULL and false prune everything.
        truthy = bool(expr.value) and expr.value is not None
        return truthy, truthy
    if isinstance(expr, ast.Comparison):
        simple = _simple_comparison(expr, schema)
        if simple is None:
            if isinstance(expr.left, ast.Literal) and isinstance(
                expr.right, ast.Literal
            ):
                a, b = expr.left.value, expr.right.value
                if a is None or b is None:
                    return False, False
                try:
                    verdict = _OPERATORS[expr.op](a, b)
                    return verdict, verdict
                except TypeError:
                    return _MAYBE
            return _MAYBE  # column-column / arithmetic comparisons
        name, op, value = simple
        column = _resolve(name, stats, schema)
        if column is None:
            return _MAYBE
        return _column_compare(stats, column, op, value)
    if isinstance(expr, ast.LogicalAnd):
        left = _analyze_expr(expr.left, stats, schema)
        right = _analyze_expr(expr.right, stats, schema)
        return left[0] and right[0], left[1] and right[1]
    if isinstance(expr, ast.LogicalOr):
        left = _analyze_expr(expr.left, stats, schema)
        right = _analyze_expr(expr.right, stats, schema)
        return left[0] or right[0], left[1] or right[1]
    if isinstance(expr, ast.LogicalNot):
        may, all_ = _analyze_expr(expr.operand, stats, schema)
        return not all_, not may
    if isinstance(expr, ast.Between):
        if not (
            isinstance(expr.operand, ast.Column)
            and isinstance(expr.low, ast.Literal)
            and isinstance(expr.high, ast.Literal)
        ):
            return _MAYBE
        if expr.negated:
            # Amended: the walker negated BETWEEN's verdict, which claimed
            # NULL rows match NOT BETWEEN. The scan never matches them.
            if expr.low.value is None or expr.high.value is None:
                return False, False
            desugared = ast.LogicalOr(
                ast.Comparison("<", expr.operand, expr.low),
                ast.Comparison(">", expr.operand, expr.high),
            )
            return _analyze_expr(desugared, stats, schema)
        desugared = ast.LogicalAnd(
            ast.Comparison(">=", expr.operand, expr.low),
            ast.Comparison("<=", expr.operand, expr.high),
        )
        verdict = _analyze_expr(desugared, stats, schema)
        return verdict
    if isinstance(expr, ast.InList):
        if not isinstance(expr.operand, ast.Column) or not all(
            isinstance(option, ast.Literal) for option in expr.options
        ):
            return _MAYBE
        if expr.negated:
            # Amended as NOT BETWEEN: NOT IN never matches a NULL row.
            options = [o for o in expr.options if o.value is not None]
            if not options:
                return _analyze_expr(ast.IsNull(expr.operand, True), stats, schema)
            verdicts = [
                _analyze_expr(ast.Comparison("!=", expr.operand, o), stats, schema)
                for o in options
            ]
            return all(v[0] for v in verdicts), all(v[1] for v in verdicts)
        verdicts = [
            _analyze_expr(ast.Comparison("=", expr.operand, option), stats, schema)
            for option in expr.options
        ]
        may = any(v[0] for v in verdicts)
        all_ = any(v[1] for v in verdicts)
        return may, all_
    if isinstance(expr, ast.IsNull):
        if not isinstance(expr.operand, ast.Column):
            return _MAYBE
        column = _resolve(expr.operand.name, stats, schema)
        if column is None:
            return _MAYBE
        column_stats = stats[column]
        if column_stats.row_count == 0:
            return False, True
        is_null = (
            column_stats.null_count > 0,
            column_stats.null_count == column_stats.row_count,
        )
        if expr.negated:
            return not is_null[1], not is_null[0]
        return is_null
    # Like, Arithmetic, bare Column, and future node types: never prune.
    return _MAYBE


def reference_estimate(
    predicate: Predicate, stats: Mapping[str, ColumnStats]
) -> float:
    """Crude expected matching-row count for ranking grabs.

    Zero only when :func:`may_match` proves the split empty; otherwise a
    zone-map width heuristic. Used to order splits and seed the
    selectivity estimator's prior — never to skip work.
    """
    rows = partition_rows(stats)
    if rows == 0:
        return 0.0
    return _selectivity(predicate, stats) * rows


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _compare_selectivity(stats: Mapping[str, ColumnStats], column, op, value) -> float:
    may, all_ = _column_compare(stats, column, op, value)
    if not may:
        return 0.0
    if all_:
        return 1.0
    column_stats = stats.get(column)
    if column_stats is None or not column_stats.has_minmax:
        return _EQ_SELECTIVITY if op == "=" else _DEFAULT_SELECTIVITY
    low, high = column_stats.min_value, column_stats.max_value
    try:
        width = float(high) - float(low)
    except (TypeError, ValueError):
        return _EQ_SELECTIVITY if op == "=" else _DEFAULT_SELECTIVITY
    if op == "=":
        if isinstance(low, bool) or not isinstance(low, (int, float)):
            return _EQ_SELECTIVITY
        if isinstance(low, int) and isinstance(high, int):
            return 1.0 / max(1.0, width + 1.0)
        return _EQ_SELECTIVITY
    if width <= 0:
        return 1.0
    try:
        position = (float(value) - float(low)) / width
    except (TypeError, ValueError):
        return _DEFAULT_SELECTIVITY
    if op in ("<", "<="):
        return _clamp(position)
    if op in (">", ">="):
        return _clamp(1.0 - position)
    if op == "!=":
        return 1.0 - _compare_selectivity(stats, column, "=", value)
    return _DEFAULT_SELECTIVITY


def _selectivity(predicate: Predicate, stats: Mapping[str, ColumnStats]) -> float:
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, MarkerEquals):
        return _compare_selectivity(stats, predicate.column, "=", predicate.marker)
    if isinstance(predicate, ColumnCompare):
        return _compare_selectivity(
            stats, predicate.column, predicate.op, predicate.value
        )
    may, all_ = _analyze(predicate, stats)
    if not may:
        return 0.0
    if all_:
        return 1.0
    return _DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# Partitions: NULL-bearing, null-free, all-NULL and empty columns
# ---------------------------------------------------------------------------
INT_VALUES = st.integers(min_value=0, max_value=20)
STR_VALUES = st.sampled_from(["AIR", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK", ""])
FLOAT_VALUES = st.sampled_from([0.0, 0.02, 0.04, 0.08])
COLUMN_CODES = {"l_quantity": "i", "l_shipmode": "s", "l_discount": "f"}
"""The columns the stats describe; l_tax is in the rows but has no stats."""


@st.composite
def partitions(draw):
    """``(columns, bloom_bits)``: one partition's values per column.

    A 64-bit bloom caps distinct keys at 8, so int and string columns
    with more distinct values carry no bloom; 2048 bits always keeps it.
    A single-valued column has equal zone-map bounds.
    """
    rows = draw(st.integers(min_value=0, max_value=12))

    def column(values):
        kind = draw(
            st.sampled_from(("nullable", "null-free", "all-null", "single-valued"))
        )
        if kind == "all-null":
            return [None] * rows
        if kind == "single-valued":
            values = st.one_of(st.none(), st.just(draw(values)))
            return draw(st.lists(values, min_size=rows, max_size=rows))
        element = values if kind == "null-free" else st.one_of(st.none(), values)
        return draw(st.lists(element, min_size=rows, max_size=rows))

    columns = {
        "l_quantity": column(INT_VALUES),
        "l_shipmode": column(STR_VALUES),
        "l_discount": column(FLOAT_VALUES),
        "l_tax": column(FLOAT_VALUES),
    }
    return columns, draw(st.sampled_from((64, 2048)))


def stats_of(columns, bloom_bits, codes=COLUMN_CODES):
    return {
        name: collect_column_stats(code, columns[name], bloom_bits=bloom_bits)
        for name, code in codes.items()
    }


def assert_same_answers(predicate, stats):
    verdict = (may_match(predicate, stats), matches_all(predicate, stats))
    assert verdict == _analyze(predicate, stats), predicate
    assert estimate_matches(predicate, stats) == reference_estimate(
        predicate, stats
    ), predicate


# ---------------------------------------------------------------------------
# Random Hive WHERE clauses over LINEITEM_SCHEMA
# ---------------------------------------------------------------------------
COLUMNS = {
    "int": ("l_quantity", "QUANTITY"),  # prefixed and unprefixed TPC-H names
    "str": ("l_shipmode", "SHIPMODE"),
    "float": ("l_discount", "l_tax"),  # l_tax: a schema column without stats
}
LITERALS = {
    "int": st.integers(min_value=-2, max_value=22).map(str),
    "str": st.sampled_from(["'AIR'", "'RAIL'", "'TRUCK'", "'ZZZ'", "''"]),
    "float": st.sampled_from(["0.0", "0.04", "0.05", "0.1"]),
}
OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def clauses(typed: bool):
    """WHERE clause text. ``typed`` keeps each literal to its column's
    type, and names no unknown column, so the scan can run the clause."""

    @st.composite
    def column_and_literal(draw):
        kind = draw(st.sampled_from(tuple(COLUMNS)))
        column = draw(st.sampled_from(COLUMNS[kind]))
        if not typed:
            column = draw(st.sampled_from((column, "nope")))  # unknown column
            kind = draw(st.sampled_from(tuple(LITERALS)))
        return kind, column

    @st.composite
    def leaf(draw):
        kind, column = draw(column_and_literal())
        literal = st.one_of(st.just("NULL"), LITERALS[kind])
        op = draw(st.sampled_from(OPS))
        shape = draw(
            st.sampled_from(
                (
                    "column-literal",
                    "literal-column",
                    "literal-literal",
                    "column-column",
                    "between",
                    "in",
                    "is-null",
                    "like",
                    "arithmetic",
                    "constant",
                )
            )
        )
        if shape == "column-literal":
            return f"{column} {op} {draw(literal)}"
        if shape == "literal-column":
            return f"{draw(literal)} {op} {column}"
        if shape == "literal-literal":
            return f"{draw(literal)} {op} {draw(literal)}"
        if shape == "column-column":
            return f"{column} {op} {draw(st.sampled_from(COLUMNS[kind]))}"
        negated = draw(st.sampled_from(("", "NOT ")))
        if shape == "between":
            return f"{column} {negated}BETWEEN {draw(literal)} AND {draw(literal)}"
        if shape == "in":
            options = draw(st.lists(literal, min_size=1, max_size=3))
            return f"{column} {negated}IN ({', '.join(options)})"
        if shape == "is-null":
            return f"{column} IS {negated}NULL"
        if shape == "like":
            pattern = draw(st.sampled_from(("'R%'", "'%A_L'", "'AIR'")))
            return f"l_shipmode {negated}LIKE {pattern}"
        if shape == "arithmetic":
            return f"l_quantity + 1 {op} {draw(LITERALS['int'])}"
        return draw(st.sampled_from(("TRUE", "FALSE")))

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: f"({a}) AND ({b})", children, children),
            st.builds(lambda a, b: f"({a}) OR ({b})", children, children),
            children.map(lambda a: f"NOT ({a})"),
        )

    return st.recursive(leaf(), extend, max_leaves=4)


def hive_predicate(clause: str) -> Predicate:
    """The predicate a session compiles for ``clause``; one naming an
    unknown column cannot compile, so it carries the bare AST."""
    expression = parse_statement(
        f"SELECT * FROM lineitem WHERE {clause} LIMIT 1"
    ).where
    try:
        return compile_predicate(expression, LINEITEM_SCHEMA)
    except HiveAnalysisError:
        return ExpressionPredicate(expression, LINEITEM_SCHEMA, lambda row: False)


# ---------------------------------------------------------------------------
# The compiled test answers exactly as the walker did
# ---------------------------------------------------------------------------
@given(partition=partitions(), tree=trees(3))
@settings(max_examples=300, deadline=None)
def test_core_trees_match_the_walker(partition, tree):
    columns, bloom_bits = partition
    stats = stats_of(
        {"x": columns["l_quantity"], "s": columns["l_shipmode"]},
        bloom_bits,
        codes={"x": "i", "s": "s"},
    )
    assert_same_answers(compile_predicate(tree, None), stats)
    marker = Comparison("=", Column("x"), Literal(51))
    assert_same_answers(compile_predicate(LogicalAnd(tree, marker), None), stats)


@given(partition=partitions(), clause=clauses(typed=False))
@settings(max_examples=400, deadline=None)
@example(
    # 30 lies inside the zone map [1, 50]; the bloom refutes it.
    partition=({"l_quantity": [1, 17, 50], "l_shipmode": ["AIR"] * 3,
                "l_discount": [0.0] * 3, "l_tax": [0.0] * 3}, 2048),
    clause="l_quantity = 30 OR l_quantity <> 30",
)
def test_hive_clauses_match_the_walker(partition, clause):
    columns, bloom_bits = partition
    stats = stats_of(columns, bloom_bits)
    assert_same_answers(hive_predicate(clause), stats)
    assert_same_answers(hive_predicate(f"NOT ({clause})"), stats)


@given(partition=partitions(), clause=clauses(typed=True))
@settings(max_examples=300, deadline=None)
def test_pruned_partition_has_no_row_the_scan_finds(partition, clause):
    columns, bloom_bits = partition
    stats = stats_of(columns, bloom_bits)
    predicate = hive_predicate(clause)
    hits: list[int] = []
    rows = len(columns["l_quantity"])
    compile_batch_matcher(predicate)(columns, 0, rows, None, hits.append)
    if not may_match(predicate, stats):
        assert hits == [], f"pruned partition holds matches for {clause}"
    if matches_all(predicate, stats):
        assert len(hits) == rows, f"all-matching partition misses rows for {clause}"
