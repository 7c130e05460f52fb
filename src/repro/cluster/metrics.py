"""Cluster-wide metrics collection.

The paper monitors CPU utilization (%) and disk reads (KB/s) on every
node at 30-second intervals (§V-D) and reports averages over the 40 cores
and 40 disks, plus map-task locality % and slot occupancy % for the
scheduler comparison (§V-F). :class:`MetricsMonitor` reproduces that
methodology against the simulated cluster.
"""

from __future__ import annotations

from repro.cluster.topology import ClusterTopology
from repro.errors import ClusterConfigError
from repro.obs.metrics import Histogram, metric
from repro.sim.simulator import PeriodicTask, Simulator


class ClusterMetrics:
    """Accumulated samples and counters for one measurement window.

    The locality counters are plain integers and the samples raw lists,
    which the paper's figures average in specific units; ``snapshot()``
    builds the exportable view from them.
    """

    def __init__(self) -> None:
        self.local_map_tasks = 0
        self.remote_map_tasks = 0
        self.sample_times: list[float] = []
        self.cpu_utilization_samples: list[float] = []
        self.disk_read_bps_samples: list[float] = []
        self.slot_occupancy_samples: list[float] = []

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return len(self.sample_times)

    @property
    def avg_cpu_utilization_pct(self) -> float:
        """Average CPU utilization over all samples, as a percentage."""
        return 100.0 * _mean(self.cpu_utilization_samples)

    @property
    def avg_disk_read_kbps(self) -> float:
        """Average per-node disk read rate, in KB/s (paper's Figure 6 unit)."""
        return _mean(self.disk_read_bps_samples) / 1000.0

    @property
    def avg_slot_occupancy_pct(self) -> float:
        return 100.0 * _mean(self.slot_occupancy_samples)

    @property
    def locality_pct(self) -> float:
        """% of finished map tasks that read their split from a local disk."""
        total = self.local_map_tasks + self.remote_map_tasks
        if total == 0:
            return 0.0
        return 100.0 * self.local_map_tasks / total

    def record_map_task(self, *, local: bool) -> None:
        if local:
            self.local_map_tasks += 1
        else:
            self.remote_map_tasks += 1

    def record_sample(
        self, time: float, *, cpu: float, disk_bps: float, occupancy: float
    ) -> None:
        self.sample_times.append(time)
        self.cpu_utilization_samples.append(cpu)
        self.disk_read_bps_samples.append(disk_bps)
        self.slot_occupancy_samples.append(occupancy)

    def snapshot(self) -> dict:
        """The cluster-scope snapshot (for trace export / ``repro
        metrics``), sorted by name; each sample list is a histogram."""
        snapshot = {
            name: metric("histogram", Histogram(name, samples).snapshot())
            for name, samples in (
                ("cpu_utilization", self.cpu_utilization_samples),
                ("disk_read_bps", self.disk_read_bps_samples),
                ("slot_occupancy", self.slot_occupancy_samples),
            )
        }
        snapshot["local_map_tasks"] = metric("counter", self.local_map_tasks)
        snapshot["remote_map_tasks"] = metric("counter", self.remote_map_tasks)
        return dict(sorted(snapshot.items()))


def _mean(values: list[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


class MetricsMonitor:
    """Samples cluster state on a fixed simulated-time period."""

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        *,
        interval: float = 30.0,
    ) -> None:
        if interval <= 0:
            raise ClusterConfigError(f"metrics interval must be positive, got {interval}")
        self._sim = sim
        self._topology = topology
        self._interval = interval
        self.metrics = ClusterMetrics()
        self._task: PeriodicTask | None = None

    def start(self) -> None:
        if self._task is not None and not self._task.cancelled:
            raise ClusterConfigError("metrics monitor already started")
        self._task = PeriodicTask(
            self._sim, self._interval, self._sample, start_delay=self._interval,
            label="metrics-sample",
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()

    def _sample(self) -> None:
        nodes = self._topology.nodes
        self.metrics.record_sample(
            self._sim.now,
            cpu=_mean([node.cpu_utilization for node in nodes]),
            disk_bps=_mean([node.disk_read_rate_bps for node in nodes]),
            occupancy=self._topology.slot_occupancy,
        )
