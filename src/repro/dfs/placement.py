"""Block placement policies.

The paper requires "a balanced distribution of load across the 40 disks
... input data evenly distributed across the disks with no replication"
(§V-B); :class:`RoundRobinPlacement` realizes exactly that.
:class:`RandomPlacement` is provided for sensitivity experiments.
"""

from __future__ import annotations

import random

from repro.dfs.split import StorageLocation
from repro.errors import DfsError


class PlacementPolicy:
    """Assigns storage locations to each block of a new file."""

    def place(self, num_blocks: int, locations: list[StorageLocation]) -> list[StorageLocation]:
        """Return one primary location per block (length ``num_blocks``)."""
        raise NotImplementedError

    def place_replicas(
        self,
        num_blocks: int,
        locations: list[StorageLocation],
        replication: int,
    ) -> list[tuple[StorageLocation, ...]]:
        """Return ``replication`` distinct-node locations per block.

        The primary comes from :meth:`place`; additional replicas walk
        the location list from the primary onward, taking the next
        locations on nodes not already holding a copy (HDFS places
        replicas on distinct nodes).
        """
        if replication < 1:
            raise DfsError(f"replication must be >= 1, got {replication}")
        primaries = self.place(num_blocks, locations)
        if replication == 1:
            return [(primary,) for primary in primaries]
        distinct_nodes = len({loc.node_id for loc in locations})
        if replication > distinct_nodes:
            raise DfsError(
                f"replication {replication} exceeds the {distinct_nodes} "
                "distinct storage nodes"
            )
        placed = []
        for primary in primaries:
            replicas = [primary]
            used_nodes = {primary.node_id}
            start = locations.index(primary)
            offset = 1
            while len(replicas) < replication:
                candidate = locations[(start + offset) % len(locations)]
                offset += 1
                if candidate.node_id not in used_nodes:
                    replicas.append(candidate)
                    used_nodes.add(candidate.node_id)
            placed.append(tuple(replicas))
        return placed


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through the available (node, disk) locations in order.

    With ``num_blocks`` a multiple of the location count this yields the
    paper's perfectly even spread; otherwise the remainder lands on the
    head of the cycle. ``start_offset`` rotates the cycle so consecutive
    files do not all start on the same disk.
    """

    def __init__(self, start_offset: int = 0) -> None:
        self._offset = start_offset

    def place(self, num_blocks: int, locations: list[StorageLocation]) -> list[StorageLocation]:
        if not locations:
            raise DfsError("cannot place blocks: no storage locations")
        placed = [
            locations[(self._offset + i) % len(locations)] for i in range(num_blocks)
        ]
        self._offset = (self._offset + num_blocks) % len(locations)
        return placed


class RandomPlacement(PlacementPolicy):
    """Independent uniform choice per block (HDFS default-like)."""

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng or random.Random(0)

    def place(self, num_blocks: int, locations: list[StorageLocation]) -> list[StorageLocation]:
        if not locations:
            raise DfsError("cannot place blocks: no storage locations")
        return [self._rng.choice(locations) for _ in range(num_blocks)]
