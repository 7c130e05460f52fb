"""Row representation.

Rows are plain ``dict[str, value]`` objects: the local MapReduce runtime
iterates millions of them and a class wrapper would roughly double the
per-row cost for no semantic gain. ``Row`` is the type alias used in
signatures throughout the library; helpers here synthesize a row from
column-major storage and serialize rows stably (used to estimate row
widths and to write samples out of examples).
"""

from __future__ import annotations

from typing import Mapping

Row = dict
"""A table row: column name -> value."""


def row_at(names: tuple[str, ...], columns: Mapping[str, list], index: int) -> Row:
    """Synthesize the row dict at ``index`` of a column-major store.

    The inverse of transposing rows into per-column lists; ``names``
    fixes the key order so synthesized rows match the originals exactly.
    """
    return {name: columns[name][index] for name in names}


def serialize(row: Mapping, columns: tuple[str, ...] | None = None) -> str:
    """Pipe-delimited text form of a row, dbgen style."""
    names = columns if columns is not None else tuple(row.keys())
    return "|".join(_format_value(row[name]) for name in names)


def serialized_bytes(row: Mapping) -> int:
    """Byte length of the serialized row (plus trailing newline)."""
    return len(serialize(row)) + 1


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
