"""Input splits.

A split is the unit of work of a map task. In this reproduction splits
correspond 1:1 with DFS blocks (as they do for the paper's unindexed,
unreplicated datasets), and they surface the block's record/byte counts,
per-predicate match counts, and — when the dataset is materialized — the
actual rows, as dicts or column-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.data.record import Row
from repro.dfs.block import Block, StorageLocation
from repro.errors import DfsError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.scan.columnar import ColumnStore


@dataclass(frozen=True)
class InputSplit:
    """A map task's input: one block of one file."""

    split_id: str
    block: Block

    @property
    def num_bytes(self) -> int:
        return self.block.num_bytes

    @property
    def num_records(self) -> int:
        return self.block.num_records

    @property
    def location(self) -> StorageLocation:
        """The primary replica's location."""
        return self.block.location

    @property
    def replicas(self) -> tuple[StorageLocation, ...]:
        return self.block.replicas

    def replica_on(self, node_id: str) -> StorageLocation | None:
        return self.block.replica_on(node_id)

    @property
    def file_path(self) -> str:
        return self.block.file_path

    @property
    def index(self) -> int:
        """Position of this split within its file."""
        return self.block.index

    @property
    def materialized(self) -> bool:
        return self.block.payload.materialized

    @property
    def mmap_ref(self):
        """The split's file-range reference
        (:class:`~repro.scan.mmapstore.MmapSplitRef`) when its partition
        lives in an on-disk mmap dataset, else None. This is the
        split ↔ file-range mapping process map workers receive instead
        of rows."""
        return self.block.payload.mmap_ref

    def matches_for(self, predicate_name: str) -> int:
        """Known matching-record count for a controlled predicate."""
        return self.block.payload.matches_for(predicate_name)

    def iter_rows(self) -> Iterator[Row]:
        """Iterate the split's rows (materialized splits only)."""
        payload = self.block.payload
        if not payload.materialized:
            raise DfsError(
                f"split {self.split_id} is profile-only; rows are not materialized"
            )
        return payload.iter_rows()

    def column_store(self) -> "ColumnStore":
        """The split's rows, column-major (materialized splits only).

        What the scan engine's chunked scan reads and builds output rows
        from (:func:`repro.scan.engine.run_map_task`): native for mmap
        datasets, transposed once and cached for the row layout.
        """
        payload = self.block.payload
        if not payload.materialized:
            raise DfsError(
                f"split {self.split_id} is profile-only; rows are not materialized"
            )
        return payload.column_store()

    def is_local_to(self, node_id: str) -> bool:
        return self.block.is_local_to(node_id)

    def __str__(self) -> str:
        return f"{self.split_id}@{self.location}"
