"""The DistributedFileSystem: namespace, placement and splits.

Ties together the file namespace, a placement policy, and the storage
locations exported by the cluster topology. Datasets built by
:mod:`repro.data.datasets` are written in as one split per partition,
placed and built once; jobs read them back as
:class:`~repro.dfs.split.InputSplit` lists.
"""

from __future__ import annotations

from repro.data.datasets import PartitionedDataset
from repro.dfs.placement import PlacementPolicy, RoundRobinPlacement
from repro.dfs.split import InputSplit, StorageLocation
from repro.errors import DfsError, FileAlreadyExistsError, FileNotFoundInDfsError


def normalize_path(path: str) -> str:
    """Canonical form: leading slash, no trailing slash, collapsed separators."""
    if not path or path.isspace():
        raise DfsError("empty DFS path")
    parts = [part for part in path.split("/") if part]
    if not parts:
        raise DfsError(f"invalid DFS path {path!r}")
    return "/" + "/".join(parts)


class DistributedFileSystem:
    """Namespace + placement over a fixed set of storage locations.

    A file is write-once until it is deleted, so each file's splits are
    built when it is written and every read hands out the same frozen
    split objects.
    """

    def __init__(
        self,
        storage_locations: list[StorageLocation],
        placement: PlacementPolicy | None = None,
        replication: int = 1,
    ) -> None:
        if not storage_locations:
            raise DfsError("a DFS needs at least one storage location")
        if replication < 1:
            raise DfsError(f"replication must be >= 1, got {replication}")
        self._locations = list(storage_locations)
        self._placement = placement or RoundRobinPlacement()
        self.replication = replication
        self._files: dict[str, tuple[InputSplit, ...]] = {}

    def write_dataset(
        self,
        path: str,
        dataset: PartitionedDataset,
        *,
        replication: int | None = None,
    ) -> None:
        """Store a partitioned dataset as one file, one split per partition.

        ``replication`` overrides the filesystem default for this file.
        """
        canonical = normalize_path(path)
        if canonical in self._files:
            raise FileAlreadyExistsError(f"DFS path already exists: {canonical}")
        factor = self.replication if replication is None else replication
        placements = self._placement.place_replicas(
            len(dataset.partitions), self._locations, factor
        )
        self._files[canonical] = tuple(
            InputSplit(file_path=canonical, payload=partition, replicas=replicas)
            for partition, replicas in zip(dataset.partitions, placements)
        )

    def open_splits(self, path: str) -> list[InputSplit]:
        """The input splits of a file, one per partition, in file order."""
        canonical = normalize_path(path)
        try:
            return list(self._files[canonical])
        except KeyError:
            raise FileNotFoundInDfsError(f"no such DFS file: {canonical}") from None

    def exists(self, path: str) -> bool:
        return normalize_path(path) in self._files

    def delete(self, path: str) -> None:
        canonical = normalize_path(path)
        if canonical not in self._files:
            raise FileNotFoundInDfsError(f"no such DFS file: {canonical}")
        del self._files[canonical]
