"""Unit tests for predicate objects.

Compound conditions are Hive WHERE trees, compiled here without a
schema, as the compound cases of the retired core algebra were built.
"""

import random

import pytest

from repro.data import predicate_for_skew
from repro.data.predicates import ColumnCompare, MarkerEquals, TruePredicate
from repro.errors import DataGenerationError
from repro.hive.expressions import compile_predicate
from repro.hive.parser import parse_statement


ROW = {"a": 5, "b": "x", "q": 10.0}


def where(condition):
    statement = parse_statement(f"SELECT * FROM t WHERE {condition}")
    return compile_predicate(statement.where, None)


class TestColumnCompare:
    @pytest.mark.parametrize(
        "op,value,expected",
        [
            ("=", 5, True),
            ("=", 6, False),
            ("!=", 6, True),
            ("<", 6, True),
            ("<=", 5, True),
            (">", 4, True),
            (">=", 5, True),
            (">", 5, False),
        ],
    )
    def test_operators(self, op, value, expected):
        assert ColumnCompare("a", op, value).matches(ROW) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(DataGenerationError):
            ColumnCompare("a", "~", 1)

    def test_name_is_stable(self):
        assert ColumnCompare("a", "<", 3).name == "a<3"


class TestNullSemantics:
    """SQL three-valued logic collapsed at the comparison: NULL never matches."""

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_null_column_value_never_matches(self, op):
        assert ColumnCompare("a", op, 5).matches({"a": None}) is False

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_null_literal_never_matches(self, op):
        assert ColumnCompare("a", op, None).matches({"a": 5}) is False
        assert ColumnCompare("a", op, None).matches({"a": None}) is False

    def test_not_over_null_comparison_is_true(self):
        # NOT(NULL = 5) evaluates NOT(false) = true under the collapsed
        # semantics — the engine has no three-valued NOT.
        assert where("NOT a = 5").matches({"a": None}) is True

    def test_marker_equals_null_row_value(self):
        predicate = MarkerEquals("a", marker=7)
        assert predicate.matches({"a": None}) is False

    def test_mixed_type_comparison_does_not_raise(self):
        # None vs int used to raise TypeError out of the bare operator.
        assert ColumnCompare("a", "<", 5).matches({"a": None}) is False


class TestCompound:
    def test_and(self):
        assert where("a = 5 AND b = 'x'").matches(ROW)
        assert not where("a = 5 AND b = 'y'").matches(ROW)

    def test_or(self):
        assert where("a = 0 OR b = 'x'").matches(ROW)

    def test_not(self):
        assert where("NOT a = 0").matches(ROW)

    def test_true_predicate(self):
        assert TruePredicate().matches({})


class TestMarkerEquals:
    def test_matches_marker_only(self):
        marker = MarkerEquals("q", 99.0)
        assert not marker.matches(ROW)
        assert marker.matches({**ROW, "q": 99.0})

    def test_make_matching_stamps_in_place(self):
        marker = MarkerEquals("q", 99.0)
        row = dict(ROW)
        marker.make_matching(row)
        assert marker.matches(row)

    def test_ensure_non_matching_passes_clean_row(self):
        marker = MarkerEquals("q", 99.0)
        row = dict(ROW)
        assert marker.ensure_non_matching(row, random.Random(0)) is row

    def test_ensure_non_matching_rejects_organic_marker(self):
        marker = MarkerEquals("q", 10.0)  # 10.0 occurs organically in ROW
        with pytest.raises(DataGenerationError):
            marker.ensure_non_matching(dict(ROW), random.Random(0))


class TestPaperPredicates:
    @pytest.mark.parametrize("z,column", [(0, "l_discount"), (1, "l_tax"), (2, "l_quantity")])
    def test_table3_assignment(self, z, column):
        assert predicate_for_skew(z).column == column

    def test_markers_outside_tpch_domains(self):
        assert predicate_for_skew(0).marker == 0.11  # discount domain 0.00-0.10
        assert predicate_for_skew(1).marker == 0.09  # tax domain 0.00-0.08
        assert predicate_for_skew(2).marker == 51    # quantity domain 1-50

    def test_unknown_skew_rejected(self):
        with pytest.raises(DataGenerationError):
            predicate_for_skew(3)
        with pytest.raises(DataGenerationError):
            predicate_for_skew(0.5)
