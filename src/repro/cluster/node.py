"""Compute nodes: cores, disks, and slot accounting."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ClusterConfigError


@dataclass(frozen=True)
class NodeSpec:
    """Static hardware/configuration description of one node."""

    node_id: str
    cores: int = 4
    disks: int = 4
    map_slots: int = 4
    reduce_slots: int = 2

    def __post_init__(self) -> None:
        for attr in ("cores", "disks", "map_slots", "reduce_slots"):
            if getattr(self, attr) < 1 and attr != "reduce_slots":
                raise ClusterConfigError(f"node {self.node_id}: {attr} must be >= 1")
        if self.reduce_slots < 0:
            raise ClusterConfigError(f"node {self.node_id}: reduce_slots must be >= 0")


@dataclass
class RunningTask:
    """A task occupying a slot on a node, with its resource signature.

    ``read_rate_bps`` is the task's effective disk/network read rate and
    ``cpu_fraction`` the number of cores it can use (map tasks: 1.0);
    both feed the metrics monitor's utilization samples.
    """

    attempt_id: str
    kind: str  # "map" | "reduce"
    disk_id: int | None
    read_rate_bps: float
    cpu_fraction: float
    start_time: float


class Node:
    """Dynamic state of one node: occupied slots, per-disk readers.

    The running map and reduce counts are kept as integers beside
    ``_running`` and move only in :meth:`start_task` and
    :meth:`finish_task`, so slot questions cost O(1), not a scan.
    """

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self._running: dict[str, RunningTask] = {}
        self._disk_readers: list[int] = [0] * spec.disks
        self.running_map_tasks = 0
        self.running_reduce_tasks = 0
        self.local_map_tasks = 0
        self.remote_map_tasks = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def free_map_slots(self) -> int:
        return self.spec.map_slots - self.running_map_tasks

    @property
    def free_reduce_slots(self) -> int:
        return self.spec.reduce_slots - self.running_reduce_tasks

    def disk_readers(self, disk_id: int) -> int:
        """Tasks currently reading from ``disk_id`` (including remote readers)."""
        return self._disk_readers[disk_id]

    @property
    def cpu_demand(self) -> float:
        """Total core-fractions demanded by running tasks."""
        return sum(t.cpu_fraction for t in self._running.values())

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the node's cores in use, in [0, 1]."""
        if self.spec.cores == 0:
            return 0.0
        return min(1.0, self.cpu_demand / self.spec.cores)

    @property
    def disk_read_rate_bps(self) -> float:
        """Aggregate read rate of tasks running on this node."""
        return sum(t.read_rate_bps for t in self._running.values())

    # ------------------------------------------------------------------
    # Slot lifecycle (driven by the TaskTracker)
    # ------------------------------------------------------------------
    def start_task(self, task: RunningTask) -> None:
        if task.attempt_id in self._running:
            raise ClusterConfigError(
                f"attempt {task.attempt_id} already running on {self.node_id}"
            )
        if task.kind == "map":
            if self.running_map_tasks >= self.spec.map_slots:
                raise ClusterConfigError(f"{self.node_id}: no free map slot")
            self.running_map_tasks += 1
        elif task.kind == "reduce":
            if self.running_reduce_tasks >= self.spec.reduce_slots:
                raise ClusterConfigError(f"{self.node_id}: no free reduce slot")
            self.running_reduce_tasks += 1
        self._running[task.attempt_id] = task

    def finish_task(self, attempt_id: str) -> RunningTask:
        try:
            task = self._running.pop(attempt_id)
        except KeyError:
            raise ClusterConfigError(
                f"attempt {attempt_id} is not running on {self.node_id}"
            ) from None
        if task.kind == "map":
            self.running_map_tasks -= 1
        elif task.kind == "reduce":
            self.running_reduce_tasks -= 1
        return task

    # ------------------------------------------------------------------
    # Disk reader accounting (a remote map task registers as a reader on
    # the node that stores its split, not the node it computes on)
    # ------------------------------------------------------------------
    def add_disk_reader(self, disk_id: int) -> None:
        self._check_disk(disk_id)
        self._disk_readers[disk_id] += 1

    def remove_disk_reader(self, disk_id: int) -> None:
        self._check_disk(disk_id)
        if self._disk_readers[disk_id] <= 0:
            raise ClusterConfigError(
                f"{self.node_id}: disk {disk_id} has no readers to remove"
            )
        self._disk_readers[disk_id] -= 1

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.spec.disks:
            raise ClusterConfigError(
                f"{self.node_id}: no disk {disk_id} (has {self.spec.disks})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, maps={self.running_map_tasks}/{self.spec.map_slots}, "
            f"reduces={self.running_reduce_tasks}/{self.spec.reduce_slots})"
        )
