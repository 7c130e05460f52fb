"""Cluster topology: the collection of nodes and derived facts."""

from __future__ import annotations

from repro.cluster.node import Node, NodeSpec
from repro.dfs.split import StorageLocation
from repro.errors import ClusterConfigError


class ClusterTopology:
    """A fixed set of nodes plus aggregate slot/storage views."""

    def __init__(self, specs: list[NodeSpec]) -> None:
        if not specs:
            raise ClusterConfigError("a cluster needs at least one node")
        ids = [s.node_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ClusterConfigError("duplicate node ids in topology")
        self._nodes = {spec.node_id: Node(spec) for spec in specs}
        self._order = ids

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        return [self._nodes[node_id] for node_id in self._order]

    @property
    def num_nodes(self) -> int:
        return len(self._order)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ClusterConfigError(f"no such node: {node_id}") from None

    @property
    def total_map_slots(self) -> int:
        return sum(n.spec.map_slots for n in self._nodes.values())

    @property
    def available_map_slots(self) -> int:
        return sum(n.free_map_slots for n in self._nodes.values())

    @property
    def running_map_tasks(self) -> int:
        return sum(n.running_map_tasks for n in self._nodes.values())

    @property
    def slot_occupancy(self) -> float:
        """Fraction of the cluster's map slots in use, in [0, 1]."""
        total = self.total_map_slots
        if total == 0:
            return 0.0
        return self.running_map_tasks / total

    def storage_locations(self) -> list[StorageLocation]:
        """All (node, disk) pairs, interleaved disk-major across nodes.

        Interleaving (disk 0 of every node, then disk 1 of every node, …)
        means round-robin block placement spreads a file across *nodes*
        first, matching the paper's even distribution over the 40 disks.
        """
        max_disks = max(n.spec.disks for n in self._nodes.values())
        locations = []
        for disk_id in range(max_disks):
            for node_id in self._order:
                if disk_id < self._nodes[node_id].spec.disks:
                    locations.append(StorageLocation(node_id=node_id, disk_id=disk_id))
        return locations


def paper_topology(
    *,
    num_nodes: int = 10,
    cores_per_node: int = 4,
    disks_per_node: int = 4,
    map_slots_per_node: int = 4,
    reduce_slots_per_node: int = 2,
) -> ClusterTopology:
    """The paper's 10-node test cluster (§V-A).

    Single-user experiments use the default 4 map slots per node; the
    multi-user experiments raise that to 16 (§V-D).
    """
    specs = [
        NodeSpec(
            node_id=f"node{i:02d}",
            cores=cores_per_node,
            disks=disks_per_node,
            map_slots=map_slots_per_node,
            reduce_slots=reduce_slots_per_node,
        )
        for i in range(num_nodes)
    ]
    return ClusterTopology(specs)
