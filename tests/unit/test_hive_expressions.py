"""Unit tests for WHERE-expression compilation."""

import pytest

from repro.data import LINEITEM_SCHEMA
from repro.data.predicates import ColumnCompare, FunctionPredicate
from repro.errors import HiveAnalysisError
from repro.hive.expressions import compile_predicate, like_to_regex, resolve_column
from repro.hive.parser import parse_statement


def where(text):
    return parse_statement(f"SELECT * FROM t WHERE {text}").where


ROW = {
    "l_quantity": 51,
    "l_tax": 0.09,
    "l_discount": 0.05,
    "l_shipmode": "AIR",
    "l_comment": "quick brown fox",
    "l_extendedprice": 100.0,
}


class TestResolveColumn:
    def test_exact_case_insensitive(self):
        assert resolve_column("L_QUANTITY", LINEITEM_SCHEMA) == "l_quantity"

    def test_tpch_bare_style(self):
        assert resolve_column("ORDERKEY", LINEITEM_SCHEMA) == "l_orderkey"
        assert resolve_column("quantity", LINEITEM_SCHEMA) == "l_quantity"

    def test_unknown_column_rejected(self):
        with pytest.raises(HiveAnalysisError):
            resolve_column("nope", LINEITEM_SCHEMA)

    def test_no_schema_passthrough(self):
        assert resolve_column("AnyThing", None) == "anything"


class TestSimpleEquality:
    def test_compiles_to_column_compare(self):
        pred = compile_predicate(where("L_QUANTITY = 51"), LINEITEM_SCHEMA)
        assert isinstance(pred, ColumnCompare)
        assert pred.name == "l_quantity=51"
        assert pred.matches(ROW)

    def test_name_matches_marker_predicate(self):
        """Critical for profile-mode simulation: Hive equality predicates
        must share names with the generator's controlled markers."""
        from repro.data import predicate_for_skew

        compiled = compile_predicate(where("L_QUANTITY = 51"), LINEITEM_SCHEMA)
        assert compiled.name == predicate_for_skew(2).name
        compiled = compile_predicate(where("L_TAX = 0.09"), LINEITEM_SCHEMA)
        assert compiled.name == predicate_for_skew(1).name

    def test_reversed_operands(self):
        pred = compile_predicate(where("51 = L_QUANTITY"), LINEITEM_SCHEMA)
        assert isinstance(pred, ColumnCompare)
        assert pred.matches(ROW)

    def test_reversed_inequality_flips_operator(self):
        pred = compile_predicate(where("10 < L_QUANTITY"), LINEITEM_SCHEMA)
        assert isinstance(pred, ColumnCompare)
        assert pred.op == ">"
        assert pred.matches(ROW)


class TestCompoundExpressions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("l_quantity = 51 AND l_tax = 0.09", True),
            ("l_quantity = 51 AND l_tax = 0.01", False),
            ("l_quantity = 1 OR l_shipmode = 'AIR'", True),
            ("NOT l_quantity = 1", True),
            ("l_discount BETWEEN 0.04 AND 0.06", True),
            ("l_discount NOT BETWEEN 0.04 AND 0.06", False),
            ("l_shipmode IN ('AIR', 'RAIL')", True),
            ("l_shipmode NOT IN ('AIR', 'RAIL')", False),
            ("l_comment LIKE '%brown%'", True),
            ("l_comment LIKE 'quick_brown%'", True),
            ("l_comment NOT LIKE '%purple%'", True),
            ("l_shipmode IS NULL", False),
            ("l_shipmode IS NOT NULL", True),
            ("l_extendedprice * (1 - l_discount) > 90", True),
            ("l_extendedprice * (1 - l_discount) > 96", False),
            ("l_quantity % 2 = 1", True),
        ],
    )
    def test_evaluation(self, text, expected):
        pred = compile_predicate(where(text), LINEITEM_SCHEMA)
        assert pred.matches(ROW) is expected

    def test_compound_is_function_predicate(self):
        pred = compile_predicate(where("l_quantity = 51 AND l_tax = 0.09"), LINEITEM_SCHEMA)
        assert isinstance(pred, FunctionPredicate)
        assert "AND" in pred.name

    def test_division_by_zero_raises(self):
        pred = compile_predicate(where("l_quantity / (l_tax - l_tax) > 1"), LINEITEM_SCHEMA)
        with pytest.raises(HiveAnalysisError):
            pred.matches(ROW)

    def test_bare_column_condition_rejected(self):
        with pytest.raises(HiveAnalysisError):
            compile_predicate(where("l_shipmode"), LINEITEM_SCHEMA)

    def test_non_boolean_literal_condition_rejected(self):
        with pytest.raises(HiveAnalysisError):
            compile_predicate(where("42"), LINEITEM_SCHEMA)

    def test_boolean_literal_condition(self):
        assert compile_predicate(where("TRUE"), LINEITEM_SCHEMA).matches(ROW)


class TestPredicateIdentity:
    """A compiled WHERE clause is a value: recompiling it must hit the
    scan matcher caches, which key on the predicate."""

    def test_recompiled_clause_is_equal_and_hash_equal(self):
        text = "l_shipmode = 'RAIL' AND l_tax = 0.0"
        first = compile_predicate(where(text), LINEITEM_SCHEMA)
        second = compile_predicate(where(text), LINEITEM_SCHEMA)
        assert first.fn is not second.fn
        assert first == second
        assert hash(first) == hash(second)
        other = compile_predicate(where("l_shipmode = 'AIR' AND l_tax = 0.0"), LINEITEM_SCHEMA)
        assert first != other

    def test_without_an_ast_the_callable_is_the_identity(self):
        from repro.hive.expressions import ExpressionPredicate

        def fn(row):
            return True

        assert ExpressionPredicate(fn, "p") == ExpressionPredicate(fn, "p")
        assert ExpressionPredicate(fn, "p") != ExpressionPredicate(lambda row: True, "p")


class TestLikeToRegex:
    @pytest.mark.parametrize(
        "pattern,text,match",
        [
            ("%foo%", "xfooy", True),
            ("foo", "foo", True),
            ("foo", "foox", False),
            ("f_o", "fxo", True),
            ("f_o", "fxxo", False),
            ("100%", "100 percent", True),
            ("a.b", "a.b", True),
            ("a.b", "axb", False),  # regex dot must be escaped
        ],
    )
    def test_patterns(self, pattern, text, match):
        assert (like_to_regex(pattern).match(text) is not None) is match
