"""Unit tests for schemas and row helpers."""

import pytest

from repro.data import Field, Schema
from repro.data.record import serialize
from repro.errors import DataGenerationError


def make_schema():
    return Schema(
        name="t",
        fields=(
            Field("a", int, 4),
            Field("b", str, 8),
            Field("c", float, 6),
        ),
    )


class TestField:
    def test_invalid_name_rejected(self):
        with pytest.raises(DataGenerationError):
            Field("9bad", int, 4)
        with pytest.raises(DataGenerationError):
            Field("", int, 4)

    def test_non_positive_bytes_rejected(self):
        with pytest.raises(DataGenerationError):
            Field("ok", int, 0)


class TestSchema:
    def test_field_names_ordered(self):
        assert make_schema().field_names == ("a", "b", "c")

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataGenerationError):
            Schema("t", (Field("a", int, 1), Field("a", str, 1)))

    def test_contains(self):
        schema = make_schema()
        assert "a" in schema
        assert "z" not in schema

    def test_field_named(self):
        assert make_schema().field_named("b").py_type is str

    def test_field_named_case_insensitive(self):
        schema = Schema("t", (Field("lower", int, 1),))
        assert schema.field_named("LOWER").name == "lower"

    def test_field_named_missing(self):
        with pytest.raises(DataGenerationError):
            make_schema().field_named("zzz")

    def test_avg_row_bytes_includes_delimiters(self):
        assert make_schema().avg_row_bytes == 4 + 8 + 6 + 3

    def test_len(self):
        assert len(make_schema()) == 3


class TestValidateRow:
    def test_valid_row_passes(self):
        make_schema().validate_row({"a": 1, "b": "x", "c": 2.5})

    def test_int_accepted_for_float_column(self):
        make_schema().validate_row({"a": 1, "b": "x", "c": 2})

    def test_missing_column_rejected(self):
        with pytest.raises(DataGenerationError):
            make_schema().validate_row({"a": 1, "b": "x"})

    def test_wrong_type_rejected(self):
        with pytest.raises(DataGenerationError):
            make_schema().validate_row({"a": "1", "b": "x", "c": 2.0})

    def test_bool_rejected_for_int_column(self):
        with pytest.raises(DataGenerationError):
            make_schema().validate_row({"a": True, "b": "x", "c": 2.0})


class TestRowHelpers:
    def test_serialize_formats_floats(self):
        assert serialize({"x": 1.5}, ("x",)) == "1.50"

    def test_serialize_all_columns_by_default(self):
        assert serialize({"a": 1, "b": "z"}) == "1|z"
