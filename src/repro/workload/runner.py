"""Running workloads to steady state and measuring throughput.

"Each workload was run for a sufficiently long duration to obtain steady
state throughput." (§V-D). The runner starts all users at t=0, lets the
system warm up for ``warmup`` simulated seconds, then counts completions
over a ``measurement`` window. Resource metrics (CPU %, disk KB/s, slot
occupancy, locality) are collected over the same window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.metrics import ClusterMetrics
from repro.engine.cluster_engine import SimulatedCluster
from repro.errors import WorkloadError
from repro.workload.generator import WorkloadSpec
from repro.workload.user import ClosedLoopUser, CompletionRecord, UserClass


@dataclass
class WorkloadResult:
    """Measured outcome of one workload run."""

    warmup: float
    measurement: float
    completions: list[CompletionRecord] = field(default_factory=list)
    metrics: ClusterMetrics | None = None

    def _measured(self, user_class: UserClass | None = None):
        start = self.warmup
        end = self.warmup + self.measurement
        return [
            record
            for record in self.completions
            if start <= record.finish_time < end
            and (user_class is None or record.user_class == user_class)
        ]

    def throughput_jobs_per_hour(self, user_class: UserClass | None = None) -> float:
        """Completed jobs per hour inside the measurement window."""
        if self.measurement <= 0:
            return 0.0
        return len(self._measured(user_class)) * 3600.0 / self.measurement

    def mean_partitions_processed(self, user_class: UserClass | None = None) -> float:
        measured = self._measured(user_class)
        if not measured:
            return 0.0
        return sum(r.result.splits_processed for r in measured) / len(measured)

    @property
    def total_completions(self) -> int:
        return len(self.completions)


class WorkloadRunner:
    """Drives a workload spec on a simulated cluster."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        spec: WorkloadSpec,
        *,
        warmup: float = 600.0,
        measurement: float = 3600.0,
    ) -> None:
        if warmup < 0 or measurement <= 0:
            raise WorkloadError(
                f"invalid window: warmup={warmup}, measurement={measurement}"
            )
        if spec.num_users == 0:
            raise WorkloadError("workload has no users")
        self._cluster = cluster
        self._spec = spec
        self._warmup = warmup
        self._measurement = measurement

    def run(self) -> WorkloadResult:
        result = WorkloadResult(warmup=self._warmup, measurement=self._measurement)
        users = [
            ClosedLoopUser(spec, self._cluster, result.completions.append)
            for spec in self._spec.users
        ]
        sim = self._cluster.sim
        start = sim.now
        for user in users:
            user.start()
        # Metrics cover only the measurement window.
        sim.schedule(self._warmup, self._cluster.start_metrics)
        end = start + self._warmup + self._measurement
        sim.run(until=end)
        self._cluster.monitor.stop()
        for user in users:
            user.stop()
        # Drain in-flight jobs so a subsequent run starts from idle, but
        # count nothing past the window (completions are filtered by time).
        sim.run(until=end + 1e6, advance_clock=False)
        result.metrics = self._cluster.metrics
        return result
