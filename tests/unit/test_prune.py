"""Unit tests for the static predicate analyzer (repro.scan.prune)."""

import pytest

from repro.data.predicates import (
    And,
    ColumnCompare,
    FunctionPredicate,
    MarkerEquals,
    Not,
    Or,
    TruePredicate,
)
from repro.data.tpch import LINEITEM_SCHEMA
from repro.hive.expressions import compile_predicate
from repro.hive.parser import parse_statement
from repro.scan.mmapstore import collect_column_stats
from repro.scan.prune import (
    estimate_matches,
    matches_all,
    may_match,
    partition_rows,
    split_stats,
)


def make_stats(**columns):
    """Column stats from literal value lists, typed by first non-null."""
    stats = {}
    for name, values in columns.items():
        sample = next((v for v in values if v is not None), 0)
        if isinstance(sample, bool):
            code = "b"
        elif isinstance(sample, int):
            code = "i"
        elif isinstance(sample, float):
            code = "f"
        else:
            code = "s"
        stats[name] = collect_column_stats(code, values)
    return stats


STATS = make_stats(
    l_quantity=[1, 17, 50],
    l_discount=[0.0, 0.04, 0.08],
    l_comment=["alpha", "beta", "gamma"],
)


def where(sql_condition):
    """Compile a WHERE clause into an ExpressionPredicate."""
    statement = parse_statement(
        f"SELECT * FROM lineitem WHERE {sql_condition} LIMIT 1"
    )
    return compile_predicate(statement.where, LINEITEM_SCHEMA)


class TestCorePredicates:
    def test_true_predicate_matches_all(self):
        assert may_match(TruePredicate(), STATS)
        assert matches_all(TruePredicate(), STATS)

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 17, True),
            ("=", 51, False),
            ("=", 0, False),
            ("!=", 17, True),
            ("<", 1, False),
            ("<", 2, True),
            ("<=", 1, True),
            (">", 50, False),
            (">", 49, True),
            (">=", 50, True),
            (">=", 51, False),
        ],
    )
    def test_column_compare_against_zone_map(self, op, value, expected):
        assert may_match(ColumnCompare("l_quantity", op, value), STATS) is expected

    def test_bloom_refutes_equality_within_range(self):
        # 30 is inside [1, 50] but absent from the bloom's key set.
        assert not may_match(ColumnCompare("l_quantity", "=", 30), STATS)
        assert may_match(ColumnCompare("l_quantity", "=", 17), STATS)

    def test_marker_equals_prunes_out_of_range_marker(self):
        assert not may_match(MarkerEquals("l_quantity", 51), STATS)
        assert not may_match(MarkerEquals("l_discount", 0.11), STATS)

    def test_unknown_column_is_maybe(self):
        assert may_match(ColumnCompare("nope", "=", 1), STATS)
        assert not matches_all(ColumnCompare("nope", "=", 1), STATS)

    def test_opaque_predicate_is_maybe(self):
        predicate = FunctionPredicate("f", lambda row: False)
        assert may_match(predicate, STATS)
        assert not matches_all(predicate, STATS)

    def test_and_or_not_composition(self):
        empty = ColumnCompare("l_quantity", ">", 100)  # provably empty
        full = ColumnCompare("l_quantity", "<=", 50)  # provably all rows
        assert not may_match(And((empty, full)), STATS)
        assert may_match(Or((empty, full)), STATS)
        assert matches_all(Or((empty, full)), STATS)
        assert matches_all(And((full, full)), STATS)
        assert not may_match(Not(full), STATS)
        assert may_match(Not(empty), STATS)
        assert matches_all(Not(empty), STATS)

    def test_incomparable_types_never_prune(self):
        assert may_match(ColumnCompare("l_comment", "<", 5), STATS)

    def test_null_semantics(self):
        stats = make_stats(a=[None, None, None], b=[1, None, 3])
        # All-NULL column: any comparison is provably false.
        assert not may_match(ColumnCompare("a", "=", 1), stats)
        # Nullable column: range may hold but never for *all* rows.
        assert may_match(ColumnCompare("b", ">=", 1), stats)
        assert not matches_all(ColumnCompare("b", ">=", 1), stats)

    def test_empty_partition_is_vacuous(self):
        stats = make_stats(a=[])
        assert not may_match(ColumnCompare("a", "=", 1), stats)
        assert matches_all(ColumnCompare("a", "=", 1), stats)
        assert partition_rows(stats) == 0


class TestHiveExpressions:
    def test_simple_comparison_prunes(self):
        assert not may_match(where("l_quantity > 100"), STATS)
        assert may_match(where("l_quantity > 10"), STATS)

    def test_flipped_literal_on_left(self):
        assert not may_match(where("100 < l_quantity"), STATS)
        assert may_match(where("10 < l_quantity"), STATS)

    def test_and_or_not(self):
        assert not may_match(where("l_quantity > 100 AND l_discount >= 0"), STATS)
        assert may_match(where("l_quantity > 100 OR l_discount >= 0"), STATS)
        assert not may_match(where("NOT l_quantity <= 50"), STATS)

    def test_between_and_in(self):
        assert not may_match(where("l_quantity BETWEEN 60 AND 80"), STATS)
        assert may_match(where("l_quantity BETWEEN 40 AND 80"), STATS)
        assert not may_match(where("l_quantity IN (51, 52, 53)"), STATS)
        assert may_match(where("l_quantity IN (51, 17)"), STATS)
        assert may_match(where("l_quantity NOT IN (51, 52)"), STATS)

    def test_is_null(self):
        stats = make_stats(l_quantity=[1, 2, 3])
        assert not may_match(where("l_quantity IS NULL"), stats)
        assert matches_all(where("l_quantity IS NOT NULL"), stats)
        nullable = make_stats(l_quantity=[1, None])
        assert may_match(where("l_quantity IS NULL"), nullable)
        assert not matches_all(where("l_quantity IS NOT NULL"), nullable)

    def test_negated_between_and_in_never_match_nulls(self):
        # NOT BETWEEN and NOT IN are false on NULL, as BETWEEN and IN are,
        # so they are not their negations: the scan finds the NULL row of
        # NOT (q NOT IN (51)), and every row of a NULL-bounded NOT BETWEEN's
        # negation.
        nullable = make_stats(l_quantity=[1, None])
        assert not matches_all(where("l_quantity NOT IN (51)"), nullable)
        assert may_match(where("NOT (l_quantity NOT IN (51))"), nullable)
        assert not may_match(where("l_quantity NOT BETWEEN NULL AND 5"), STATS)
        assert may_match(where("NOT (l_quantity NOT BETWEEN NULL AND 5)"), STATS)

    def test_like_is_maybe(self):
        assert may_match(where("l_comment LIKE '%alpha%'"), STATS)
        assert not matches_all(where("l_comment LIKE '%alpha%'"), STATS)

    def test_case_insensitive_column_resolution(self):
        assert not may_match(where("L_QUANTITY > 100"), STATS)


class TestEstimates:
    def test_pruned_split_estimates_zero(self):
        assert estimate_matches(MarkerEquals("l_quantity", 51), STATS) == 0.0

    def test_estimate_bounded_by_rows(self):
        estimate = estimate_matches(ColumnCompare("l_quantity", ">=", 1), STATS)
        assert 0.0 <= estimate <= partition_rows(STATS)
        assert estimate == partition_rows(STATS)  # provably all rows

    def test_narrower_ranges_estimate_fewer_matches(self):
        broad = estimate_matches(ColumnCompare("l_quantity", ">", 5), STATS)
        narrow = estimate_matches(ColumnCompare("l_quantity", ">", 45), STATS)
        assert narrow < broad


class TestSplitStats:
    def test_split_without_mmap_ref_has_no_stats(self):
        class Split:
            mmap_ref = None

        assert split_stats(Split()) is None

    def test_unreadable_file_yields_none(self):
        class Ref:
            path = "/nonexistent/file.rcs"
            partition = 0

        class Split:
            mmap_ref = Ref()

        assert split_stats(Split()) is None
