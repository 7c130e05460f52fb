"""Column-major split storage.

A :class:`ColumnStore` holds one partition's rows as parallel per-column
lists instead of per-row dicts: the scan loop then touches a handful of
flat lists rather than hashing a column name per row, and the codegen
layer (:mod:`repro.scan.codegen`) can bind each referenced column to a
local once per matcher call. Row dicts remain the logical model — a
store can synthesize them on demand (:meth:`ColumnStore.row_at`),
preserving the original column order so row-mode and batch-mode
execution produce byte-identical output.

Scans read a store through :meth:`ColumnStore.scan_columns`, once per
chunk of the scan loop (:func:`repro.scan.engine.scan_partition`). It
differs from ``columns`` only for mmap-backed stores: there a string
column hands a scan the rows that earlier scans already read as one
decoded list, and later scans index that list.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.data.record import Row, row_at
from repro.errors import DataGenerationError


class ColumnStore:
    """One partition's rows, stored column-major.

    ``names`` preserves the source rows' column order; ``columns`` maps
    each name to a list holding that column's values for every row.
    """

    __slots__ = ("names", "columns", "num_rows", "_decodes")

    def __init__(self, names: tuple[str, ...], columns: dict[str, list]) -> None:
        lengths = {len(columns[name]) for name in names}
        if len(lengths) > 1:
            raise DataGenerationError(
                f"ragged column store: column lengths {sorted(lengths)}"
            )
        self.names = tuple(names)
        self.columns = columns
        self.num_rows = lengths.pop() if lengths else 0
        self._decodes = any(hasattr(column, "decoded") for column in columns.values())

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "ColumnStore":
        """Transpose row dicts (all sharing one key set) into columns."""
        rows = list(rows)
        if not rows:
            return cls((), {})
        names = tuple(rows[0].keys())
        columns: dict[str, list] = {name: [] for name in names}
        appends = [columns[name].append for name in names]
        for row in rows:
            if len(row) != len(names):
                raise DataGenerationError(
                    f"row with {len(row)} columns in a {len(names)}-column store"
                )
            for name, append in zip(names, appends):
                append(row[name])
        return cls(names, columns)

    def scan_columns(self, stop: int) -> Mapping[str, Sequence]:
        """Column name -> the column as a scan of rows ``[0, stop)`` indexes it.

        Only scans read a store this way; row reads (:meth:`row_at`,
        :meth:`iter_rows`) go through ``columns`` and never decode. A
        column with a ``decoded(stop)`` method (the mmap string column)
        is swapped for what that returns on lookup; every other column,
        and every column of an in-memory store, is returned as is.
        """
        return _ScanView(self.columns, stop) if self._decodes else self.columns

    def row_at(self, index: int, columns: tuple[str, ...] | None = None) -> Row:
        """Synthesize the row dict at ``index`` (optionally projected)."""
        names = columns if columns is not None else self.names
        return row_at(names, self.columns, index)

    def iter_rows(self) -> Iterator[Row]:
        """All rows as dicts, in order (the row-mode view of the store)."""
        names = self.names
        cols = [self.columns[name] for name in names]
        for values in zip(*cols):
            yield dict(zip(names, values))

    def __len__(self) -> int:
        return self.num_rows


class _ScanView(Mapping):
    """A store's columns as a scan of rows ``[0, stop)`` indexes them
    (see :meth:`ColumnStore.scan_columns`)."""

    __slots__ = ("_columns", "_stop")

    def __init__(self, columns: Mapping[str, Sequence], stop: int) -> None:
        self._columns = columns
        self._stop = stop

    def __getitem__(self, name: str) -> Sequence:
        column = self._columns[name]
        decoded = getattr(column, "decoded", None)
        return column if decoded is None else decoded(self._stop)

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)
