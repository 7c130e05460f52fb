"""Input splits and the storage locations that hold them.

A split is the unit of work of a map task. In this reproduction a split
is its DFS block, as it is for the paper's unindexed, unreplicated
datasets: each partition of a dataset is stored as one block, read by
one map task. A split carries the partition's record/byte counts,
per-predicate match counts and, when the dataset is materialized, the
actual rows, as dicts or column-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.data.datasets import PartitionData
from repro.data.record import Row
from repro.errors import DfsError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.scan.columnar import ColumnStore


@dataclass(frozen=True)
class StorageLocation:
    """A (node, disk) pair that physically holds a split.

    Node and disk identifiers are opaque strings/ints owned by the cluster
    model; the DFS never interprets them beyond equality.
    """

    node_id: str
    disk_id: int

    def __str__(self) -> str:
        return f"{self.node_id}/disk{self.disk_id}"


@dataclass(frozen=True)
class InputSplit:
    """A map task's input: one block of one DFS file.

    ``payload`` is the partition's data or profile
    (:class:`~repro.data.datasets.PartitionData`). A split has one or
    more replicas on distinct nodes (HDFS-style); the paper's datasets
    are unreplicated, so the DFS default is one, and ``location`` names
    the primary, ``replicas[0]``. ``split_id`` is ``path:index``.
    """

    file_path: str
    payload: PartitionData
    replicas: tuple[StorageLocation, ...]
    split_id: str = field(init=False)

    def __post_init__(self) -> None:
        split_id = f"{self.file_path}:{self.payload.index}"
        if self.payload.index < 0:
            raise DfsError(f"split {split_id}: negative index")
        if not self.replicas:
            raise DfsError(f"split {split_id}: no replica location")
        nodes = [replica.node_id for replica in self.replicas]
        if len(set(nodes)) != len(nodes):
            raise DfsError(f"split {split_id}: replicas must land on distinct nodes")
        object.__setattr__(self, "split_id", split_id)

    @property
    def index(self) -> int:
        """Position of this split within its file."""
        return self.payload.index

    @property
    def num_bytes(self) -> int:
        return self.payload.num_bytes

    @property
    def num_records(self) -> int:
        return self.payload.num_records

    @property
    def location(self) -> StorageLocation:
        """The primary replica's location."""
        return self.replicas[0]

    def replica_on(self, node_id: str) -> StorageLocation | None:
        """The replica stored on ``node_id``, if any."""
        for replica in self.replicas:
            if replica.node_id == node_id:
                return replica
        return None

    def is_local_to(self, node_id: str) -> bool:
        return self.replica_on(node_id) is not None

    @property
    def materialized(self) -> bool:
        return self.payload.materialized

    @property
    def mmap_ref(self):
        """The split's file-range reference
        (:class:`~repro.scan.mmapstore.MmapSplitRef`) when its partition
        lives in an on-disk mmap dataset, else None. This is the
        split ↔ file-range mapping process map workers receive instead
        of rows."""
        return self.payload.mmap_ref

    def matches_for(self, predicate_name: str) -> int:
        """Known matching-record count for a controlled predicate."""
        return self.payload.matches_for(predicate_name)

    def iter_rows(self) -> Iterator[Row]:
        """Iterate the split's rows (materialized splits only)."""
        self._require_rows()
        return self.payload.iter_rows()

    def column_store(self) -> "ColumnStore":
        """The split's rows, column-major (materialized splits only).

        What the scan engine's chunked scan reads and builds output rows
        from (:func:`repro.scan.engine.run_map_task`): native for mmap
        datasets, transposed once and cached for the row layout.
        """
        self._require_rows()
        return self.payload.column_store()

    def _require_rows(self) -> None:
        if not self.payload.materialized:
            raise DfsError(
                f"split {self.split_id} is profile-only; rows are not materialized"
            )

    def __str__(self) -> str:
        return f"{self.split_id}@{self.location}"
