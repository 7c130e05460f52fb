"""Distributed file system substrate (HDFS analogue).

A file is a sequence of input splits, and a split is its block: one
split holds one input partition of the paper (the paper stores datasets
with no replication, spread evenly across the cluster's 40 disks). The
:class:`~repro.dfs.dfs.DistributedFileSystem` keeps the namespace, a
placement policy assigns each split to ``(node, disk)`` storage
locations, and :class:`~repro.dfs.split.InputSplit` is the unit a map
task consumes.

The package deliberately depends only on opaque node/disk identifiers so
it has no import relationship with the cluster model.
"""

from repro.dfs.dfs import DistributedFileSystem
from repro.dfs.placement import PlacementPolicy, RandomPlacement, RoundRobinPlacement
from repro.dfs.split import InputSplit, StorageLocation

__all__ = [
    "DistributedFileSystem",
    "InputSplit",
    "PlacementPolicy",
    "RandomPlacement",
    "RoundRobinPlacement",
    "StorageLocation",
]
