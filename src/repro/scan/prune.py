"""Static predicate analysis against split statistics (zone maps/blooms).

Answers one question per split without touching row data: *can this
split possibly contain a matching row?* :func:`zone_test` compiles the
predicates the scan engine executes — the :mod:`repro.data.predicates`
leaves and, through
:class:`~repro.hive.expressions.ExpressionPredicate`, Hive WHERE ASTs —
once per job into a :class:`ZoneTest` over one split's footer STATS
mapping (:mod:`repro.scan.mmapstore`). Compiling resolves columns
against the schema, flips literal-on-the-left comparisons, desugars
BETWEEN and IN, and folds unsupported nodes to a constant; testing a
split runs only closures over its stats, and each equality literal is
bloom-hashed once per filter shape, not once per split.

Every verdict is conservative in one direction only: :func:`may_match`
returning ``False`` is a *proof* that no row in the split satisfies the
predicate (so the split can be retired unscanned), while ``True`` just
means "maybe" — unsupported expressions, missing stats, and type
surprises all fall back to maybe. Internally each node is analyzed into
a ``(may_match, matches_all)`` pair so ``NOT`` stays sound:
``NOT p`` can only be refuted by proving ``p`` holds for *every* row.

NULL handling follows the engine's collapsed three-valued logic: a
comparison against NULL (either side) is never true, so an all-NULL
column refutes any comparison over it, and ``matches_all`` for a
comparison additionally requires a NULL-free column.

:func:`estimate_matches` is the companion ranking heuristic: a crude
zone-map selectivity guess used only to order grabs (and seed the
selectivity estimator) — it carries no soundness obligation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.data.predicates import (
    _OPERATORS,
    ColumnCompare,
    MarkerEquals,
    Predicate,
    TruePredicate,
)
from repro.errors import MmapStoreError
from repro.scan.mmapstore import ColumnStats, bloom_probe, open_mmap_dataset

Stats = Mapping[str, ColumnStats]
Verdict = tuple[bool, bool]
VerdictFn = Callable[[Stats], Verdict]
SelectivityFn = Callable[[Stats], float]

#: Fallback equality selectivity when the zone map gives no usable width.
_EQ_SELECTIVITY = 0.05
#: Fallback selectivity for comparisons the estimator cannot size.
_DEFAULT_SELECTIVITY = 0.3

_MAYBE = (True, False)
"""The conservative verdict: might match, not provably all-matching."""
_NONE = (False, False)
"""Provably no row matches."""
_VACUOUS = (False, True)
"""An empty partition: no rows to match, and all of them do."""

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
"""The operator that keeps a comparison's meaning when its sides swap."""


class ZoneTest:
    """A predicate compiled against split statistics.

    Calling it with one split's stats mapping answers ``(may_match,
    matches_all)``; :meth:`estimate` answers :func:`estimate_matches`.
    Build one per job with :func:`zone_test` and run it on every split.
    """

    __slots__ = ("_verdict", "_selectivity")

    def __init__(self, verdict: VerdictFn, selectivity: SelectivityFn) -> None:
        self._verdict = verdict
        self._selectivity = selectivity

    def __call__(self, stats: Stats) -> Verdict:
        return self._verdict(stats)

    def estimate(self, stats: Stats) -> float:
        rows = partition_rows(stats)
        if rows == 0:
            return 0.0
        return self._selectivity(stats) * rows


def zone_test(predicate: Predicate | ZoneTest) -> ZoneTest:
    """Compile ``predicate``; an already compiled test is returned as is."""
    if isinstance(predicate, ZoneTest):
        return predicate
    return ZoneTest(*_compile(predicate))


def may_match(predicate: Predicate, stats: Stats) -> bool:
    """False only when provably no row in the split satisfies the predicate."""
    return zone_test(predicate)(stats)[0]


def matches_all(predicate: Predicate, stats: Stats) -> bool:
    """True only when provably every row in the split satisfies it."""
    return zone_test(predicate)(stats)[1]


def estimate_matches(predicate: Predicate | ZoneTest, stats: Stats) -> float:
    """Crude expected matching-row count for ranking grabs.

    Zero only when :func:`may_match` proves the split empty; otherwise a
    zone-map width heuristic. Used to order splits and seed the
    selectivity estimator's prior — never to skip work.
    """
    return zone_test(predicate).estimate(stats)


def partition_rows(stats: Stats) -> int:
    """Row count of the partition the stats describe."""
    for column_stats in stats.values():
        return column_stats.row_count
    return 0


# ---------------------------------------------------------------------------
# Reading stats: one open per dataset file
# ---------------------------------------------------------------------------
def split_stats(split) -> Stats | None:
    """Column stats for a split's partition, or None when unavailable.

    Only mmap-backed splits whose dataset file carries a STATS section
    have stats; everything else (the row layout, profile-only sim
    splits, unreadable files) yields None and is never pruned. The
    mapping is the dataset's shared, read-only one.
    """
    return _stats_of(split, {})


def iter_split_stats(splits: Iterable) -> Iterator[tuple[object, Stats | None]]:
    """``(split, stats)`` per split, as :func:`split_stats` answers it.

    Each readable dataset file is opened once, so a job's survey pays
    :func:`open_mmap_dataset`'s ``(mtime, size)`` fingerprint check once
    per file, and the next job still sees a rewritten file.
    """
    datasets: dict = {}
    for split in splits:
        yield split, _stats_of(split, datasets)


def _stats_of(split, datasets: dict) -> Stats | None:
    ref = getattr(split, "mmap_ref", None)
    if ref is None:
        return None
    try:
        dataset = datasets.get(ref.path)
        if dataset is None:
            dataset = datasets[ref.path] = open_mmap_dataset(ref.path)
        return dataset.partition_stats(ref.partition)
    except (OSError, MmapStoreError):
        return None


# ---------------------------------------------------------------------------
# Compiling a predicate: (verdict, selectivity)
# ---------------------------------------------------------------------------
def _compile(predicate: Predicate) -> tuple[VerdictFn, SelectivityFn]:
    if isinstance(predicate, TruePredicate):
        return _constant((True, True)), lambda stats: 1.0
    if isinstance(predicate, MarkerEquals):
        return _compile_compare(predicate.column, "=", predicate.marker)
    if isinstance(predicate, ColumnCompare):
        return _compile_compare(predicate.column, predicate.op, predicate.value)
    # ExpressionPredicate (duck-typed to avoid importing the hive layer's
    # concrete class here): carries the original WHERE AST + schema. Any
    # other predicate type is never pruned. A WHERE tree is sized from its
    # verdict alone: sizing it from its leaves' widths would reorder
    # rank-mode grabs and the selectivity prior, and so the rows read.
    expression = getattr(predicate, "expression", None)
    if expression is None:
        verdict = _constant(_MAYBE)
    else:
        verdict = _compile_expression(expression, getattr(predicate, "schema", None))
    return verdict, _verdict_selectivity(verdict)


def _constant(verdict: Verdict) -> VerdictFn:
    return lambda stats: verdict


def _all_of(verdicts: list[VerdictFn]) -> VerdictFn:
    """AND: every child is tested, so an empty partition stays vacuous."""

    def conjunction(stats: Stats) -> Verdict:
        may = all_ = True
        for verdict in verdicts:
            child_may, child_all = verdict(stats)
            may = may and child_may
            all_ = all_ and child_all
        return may, all_

    return conjunction


def _any_of(verdicts: list[VerdictFn]) -> VerdictFn:
    """OR, the dual of :func:`_all_of`."""

    def disjunction(stats: Stats) -> Verdict:
        may = all_ = False
        for verdict in verdicts:
            child_may, child_all = verdict(stats)
            may = may or child_may
            all_ = all_ or child_all
        return may, all_

    return disjunction


def _negate(verdict: VerdictFn) -> VerdictFn:
    def negated(stats: Stats) -> Verdict:
        may, all_ = verdict(stats)
        return not all_, not may

    return negated


def _verdict_selectivity(verdict: VerdictFn) -> SelectivityFn:
    """Selectivity of a node the estimator cannot size: its verdict alone."""

    def selectivity(stats: Stats) -> float:
        may, all_ = verdict(stats)
        if not may:
            return 0.0
        if all_:
            return 1.0
        return _DEFAULT_SELECTIVITY

    return selectivity


# ---------------------------------------------------------------------------
# Comparison kernels over one column's zone map + bloom
# ---------------------------------------------------------------------------
_IN_RANGE = {
    "=": lambda low, high, value, null_free: (
        low <= value <= high,
        null_free and low == value and high == value,
    ),
    "!=": lambda low, high, value, null_free: (
        not (low == value and high == value),
        null_free and (value < low or value > high),
    ),
    "<": lambda low, high, value, null_free: (low < value, null_free and high < value),
    "<=": lambda low, high, value, null_free: (
        low <= value,
        null_free and high <= value,
    ),
    ">": lambda low, high, value, null_free: (high > value, null_free and low > value),
    ">=": lambda low, high, value, null_free: (
        high >= value,
        null_free and low >= value,
    ),
}
"""(may, all) of ``column <op> value`` from a zone map's bounds."""


def _compare_verdict(column: str, op: str, value) -> VerdictFn:
    """Verdict of ``column <op> literal`` under SQL NULL semantics. The
    literal's bloom probe is hashed once per ``(bits, hashes)`` filter
    shape, which every partition of a file shares."""
    in_range = _IN_RANGE.get(op, lambda *bounds: _MAYBE)
    checks_bloom = op in ("=", "!=")
    probes: dict[tuple[int, int], object] = {}

    def absent(bloom) -> bool:
        shape = (bloom.bits, bloom.hashes)
        if shape not in probes:
            probes[shape] = bloom_probe(value, bloom.bits, bloom.hashes)
        return not bloom.might_contain_probe(probes[shape])

    def verdict(stats: Stats) -> Verdict:
        column_stats = stats.get(column)
        if column_stats is None:
            return _MAYBE
        if column_stats.row_count == 0:
            return _VACUOUS
        if value is None:
            return _NONE  # comparison against a NULL literal is never true
        if column_stats.non_null_count <= 0:
            return _NONE  # all-NULL column: every comparison is false
        null_free = column_stats.null_count == 0
        bloom = column_stats.bloom
        if checks_bloom and bloom is not None and absent(bloom):
            # Value provably absent: no row is equal, every non-NULL row differs.
            return _NONE if op == "=" else (True, null_free)
        if not column_stats.has_minmax:
            return _MAYBE
        try:
            return in_range(
                column_stats.min_value, column_stats.max_value, value, null_free
            )
        except TypeError:
            # Incomparable types (str bound vs int literal, ...): the scan
            # itself decides; never prune on a comparison we cannot perform.
            return _MAYBE

    return verdict


def _compile_compare(column: str, op: str, value) -> tuple[VerdictFn, SelectivityFn]:
    """(verdict, selectivity) of a ``column <op> literal`` leaf; the
    selectivity sizes the comparison from the zone map's width."""
    verdict = _compare_verdict(column, op, value)
    equal_selectivity = (
        _compile_compare(column, "=", value)[1] if op == "!=" else None
    )
    fallback = _EQ_SELECTIVITY if op == "=" else _DEFAULT_SELECTIVITY

    def selectivity(stats: Stats) -> float:
        may, all_ = verdict(stats)
        if not may:
            return 0.0
        if all_:
            return 1.0
        column_stats = stats.get(column)
        if column_stats is None or not column_stats.has_minmax:
            return fallback
        low, high = column_stats.min_value, column_stats.max_value
        try:
            width = float(high) - float(low)
        except (TypeError, ValueError):
            return fallback
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
            return 1.0 - equal_selectivity(stats)
        return _DEFAULT_SELECTIVITY

    return verdict, selectivity


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Compiling Hive WHERE ASTs (the same dispatch shape as scan/codegen.py)
# ---------------------------------------------------------------------------
def _compile_expression(expression, schema) -> VerdictFn:
    # The hive layer is imported here, not at module level: its package
    # __init__ pulls in the compiler stack (which reaches back into core/),
    # so a module-level import would be an import cycle waiting for an
    # unlucky entry point. By the time an AST is compiled, hive is loaded.
    from repro.errors import HiveAnalysisError
    from repro.hive import ast
    from repro.hive.expressions import resolve_column

    def resolve(name: str) -> str | None:
        try:
            return resolve_column(name, schema)
        except HiveAnalysisError:
            return None  # unknown column: maybe

    def compile_node(expr) -> VerdictFn:
        if isinstance(expr, ast.Literal):
            # A constant WHERE clause: NULL and false prune everything.
            truthy = bool(expr.value) and expr.value is not None
            return _constant((truthy, truthy))
        if isinstance(expr, ast.Comparison):
            left, op, right = expr.left, expr.op, expr.right
            if isinstance(left, ast.Literal) and isinstance(right, ast.Column):
                left, op, right = right, _FLIP[op], left
            if isinstance(left, ast.Column) and isinstance(right, ast.Literal):
                column = resolve(left.name)
                if column is None:
                    return _constant(_MAYBE)
                return _compare_verdict(column, op, right.value)
            if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
                compare = _OPERATORS[op]
                return _constant(_literal_compare(compare, left.value, right.value))
            return _constant(_MAYBE)  # column-column / arithmetic comparisons
        if isinstance(expr, ast.LogicalAnd):
            return _all_of([compile_node(expr.left), compile_node(expr.right)])
        if isinstance(expr, ast.LogicalOr):
            return _any_of([compile_node(expr.left), compile_node(expr.right)])
        if isinstance(expr, ast.LogicalNot):
            return _negate(compile_node(expr.operand))
        if isinstance(expr, ast.Between):
            if not (
                isinstance(expr.operand, ast.Column)
                and isinstance(expr.low, ast.Literal)
                and isinstance(expr.high, ast.Literal)
            ):
                return _constant(_MAYBE)
            operand, low, high = expr.operand, expr.low, expr.high
            if not expr.negated:
                return compile_node(
                    ast.LogicalAnd(
                        ast.Comparison(">=", operand, low),
                        ast.Comparison("<=", operand, high),
                    )
                )
            # NOT BETWEEN, like BETWEEN, is never true on a NULL operand or
            # bound, so it is not BETWEEN's negation: it holds only below
            # or above two non-NULL bounds.
            if low.value is None or high.value is None:
                return _constant(_NONE)
            return compile_node(
                ast.LogicalOr(
                    ast.Comparison("<", operand, low),
                    ast.Comparison(">", operand, high),
                )
            )
        if isinstance(expr, ast.InList):
            if not isinstance(expr.operand, ast.Column) or not all(
                isinstance(option, ast.Literal) for option in expr.options
            ):
                return _constant(_MAYBE)
            if not expr.negated:
                return _any_of(
                    [
                        compile_node(ast.Comparison("=", expr.operand, option))
                        for option in expr.options
                    ]
                )
            # NOT IN is never true on a NULL operand either: it holds
            # where the operand differs from every non-NULL option.
            options = [o for o in expr.options if o.value is not None]
            if not options:
                return compile_node(ast.IsNull(expr.operand, negated=True))
            return _all_of(
                [
                    compile_node(ast.Comparison("!=", expr.operand, option))
                    for option in options
                ]
            )
        if isinstance(expr, ast.IsNull):
            column = (
                resolve(expr.operand.name)
                if isinstance(expr.operand, ast.Column)
                else None
            )
            if column is None:
                return _constant(_MAYBE)

            def is_null(stats: Stats) -> Verdict:
                column_stats = stats.get(column)
                if column_stats is None:
                    return _MAYBE
                if column_stats.row_count == 0:
                    return _VACUOUS
                return (
                    column_stats.null_count > 0,
                    column_stats.null_count == column_stats.row_count,
                )

            return _negate(is_null) if expr.negated else is_null
        # Like, Arithmetic, bare Column, and future node types: never prune.
        return _constant(_MAYBE)

    return compile_node(expression)


def _literal_compare(compare, a, b) -> Verdict:
    if a is None or b is None:
        return _NONE
    try:
        verdict = compare(a, b)
    except TypeError:
        return _MAYBE
    return verdict, verdict
