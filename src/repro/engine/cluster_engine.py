"""SimulatedCluster: the one-stop facade for performance experiments.

Wires together the simulator, topology, DFS, JobTracker, TaskTrackers,
JobClient, and metrics monitor, mirroring a freshly provisioned
Hadoop/Hive installation. Typical use::

    cluster = SimulatedCluster.paper_cluster()
    cluster.load_dataset("/data/lineitem_5x", dataset)
    conf = make_sampling_conf(name="q", input_path="/data/lineitem_5x",
                              predicate=pred, sample_size=10_000,
                              policy_name="LA")
    result = cluster.run_job(conf)
    print(result.response_time, result.splits_processed)
"""

from __future__ import annotations

import weakref

from repro.cluster.costmodel import CostModel
from repro.cluster.metrics import ClusterMetrics, MetricsMonitor
from repro.cluster.topology import ClusterTopology, paper_topology
from repro.core.input_provider import ProviderRegistry, default_providers
from repro.core.policy import PolicyRegistry, paper_policies
from repro.data.datasets import PartitionedDataset
from repro.dfs.dfs import DistributedFileSystem
from repro.dfs.placement import PlacementPolicy
from repro.engine.job import Job, JobResult
from repro.engine.jobclient import CompletionCallback, JobClient
from repro.engine.jobconf import JobConf
from repro.engine.jobtracker import JobTracker
from repro.engine.scheduler.base import TaskScheduler
from repro.engine.scheduler.fair import FairScheduler
from repro.engine.scheduler.fifo import FifoScheduler
from repro.errors import ClusterConfigError, JobError
from repro.sim.random_source import RandomSource
from repro.sim.simulator import Simulator


def _make_scheduler(scheduler: str | TaskScheduler | None) -> TaskScheduler:
    if scheduler is None:
        return FifoScheduler()
    if isinstance(scheduler, TaskScheduler):
        return scheduler
    if scheduler == "fifo":
        return FifoScheduler()
    if scheduler == "fair":
        return FairScheduler()
    raise ClusterConfigError(
        f"unknown scheduler {scheduler!r}; use 'fifo', 'fair', or an instance"
    )


def _release(sim_ref: weakref.ref, jobtracker_ref: weakref.ref) -> None:
    sim = sim_ref()
    if sim is not None:
        sim.cancel_pending()
    jobtracker = jobtracker_ref()
    if jobtracker is not None:
        jobtracker.drop_listeners()


class SimulatedCluster:
    """A complete simulated Hadoop cluster plus client-side machinery."""

    def __init__(
        self,
        topology: ClusterTopology | None = None,
        *,
        cost_model: CostModel | None = None,
        scheduler: str | TaskScheduler | None = None,
        policies: PolicyRegistry | None = None,
        providers: ProviderRegistry | None = None,
        placement: PlacementPolicy | None = None,
        seed: int = 0,
        metrics_interval: float = 30.0,
        failure_injector=None,
        straggler_model=None,
        dispatch_delay: float = 1.5,
        trace=None,
    ) -> None:
        self.sim = Simulator()
        self.topology = topology or paper_topology()
        self.cost_model = cost_model or CostModel()
        self.random_source = RandomSource(seed)
        self.dfs = DistributedFileSystem(
            self.topology.storage_locations(), placement=placement
        )
        self.monitor = MetricsMonitor(
            self.sim, self.topology, interval=metrics_interval
        )
        self.jobtracker = JobTracker(
            self.sim,
            self.topology,
            cost_model=self.cost_model,
            scheduler=_make_scheduler(scheduler),
            metrics=self.monitor.metrics,
            dispatch_delay=dispatch_delay,
            failure_injector=failure_injector,
            straggler_model=straggler_model,
            trace=trace,
        )
        self.jobclient = JobClient(
            self.sim,
            self.jobtracker,
            self.dfs,
            policies=policies or paper_policies(),
            providers=providers or default_providers(),
            random_source=self.random_source,
        )
        self._results: list[JobResult] = []
        # Queued events (the dispatch ``run_job`` stops short of, any
        # poller) call back into the JobTracker and JobClient, which hold
        # the simulator, and a job still in flight keeps its completion
        # listeners, which hold the JobClient; dropping both with the
        # cluster frees it all without the cyclic garbage collector. The
        # finalizer holds its targets weakly: a strong reference would
        # keep the cluster's parts alive for good.
        weakref.finalize(
            self, _release, weakref.ref(self.sim), weakref.ref(self.jobtracker)
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def paper_cluster(
        cls,
        *,
        map_slots_per_node: int = 4,
        scheduler: str | TaskScheduler | None = None,
        seed: int = 0,
        cost_model: CostModel | None = None,
        failure_injector=None,
        trace=None,
    ) -> "SimulatedCluster":
        """The paper's 10-node cluster (§V-A): 40 cores, 40 disks.

        ``map_slots_per_node=4`` is the single-user configuration; pass 16
        for the multi-user experiments (§V-D).
        """
        return cls(
            paper_topology(map_slots_per_node=map_slots_per_node),
            scheduler=scheduler,
            seed=seed,
            cost_model=cost_model,
            failure_injector=failure_injector,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Data & metrics
    # ------------------------------------------------------------------
    def load_dataset(self, path: str, dataset: PartitionedDataset) -> None:
        """Store a dataset into the cluster's DFS."""
        self.dfs.write_dataset(path, dataset)

    def start_metrics(self) -> None:
        self.monitor.start()

    @property
    def metrics(self) -> ClusterMetrics:
        return self.monitor.metrics

    @property
    def trace(self):
        """The TraceRecorder, if one was attached at construction."""
        return self.jobtracker.trace

    def snapshot_cluster_metrics(self) -> None:
        """Export the cluster metrics snapshot into the trace (end of a run)."""
        if self.trace is not None:
            self.trace.metrics_snapshot(
                self.sim.now, scope="cluster", metrics=self.metrics.snapshot()
            )

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def submit(self, conf: JobConf, on_complete: CompletionCallback | None = None) -> Job:
        """Submit a job; the simulation must then be advanced with run()."""
        # The JobTracker keeps this closure until the job ends, so it
        # holds the results list, never the cluster (nor does run_job's).
        results = self._results

        def record_and_forward(result: JobResult) -> None:
            results.append(result)
            if on_complete is not None:
                on_complete(result)

        return self.jobclient.submit(conf, record_and_forward)

    def run_job(self, conf: JobConf, *, timeout: float = 1e7) -> JobResult:
        """Submit one job and run the simulation until it completes.

        Periodic activities (metrics sampling, other jobs' evaluation
        loops) keep the event queue alive, so completion is detected via
        the job's own callback rather than queue drain.
        """
        done: list[JobResult] = []
        sim = self.sim

        def on_done(result: JobResult) -> None:
            done.append(result)
            sim.stop()

        self.submit(conf, on_done)
        self.sim.run(until=self.sim.now + timeout, advance_clock=False)
        if not done:
            raise JobError(
                f"job {conf.name!r} did not complete by simulated t={self.sim.now:.0f}s"
            )
        return done[0]

    def run(self, until: float | None = None) -> float:
        """Advance the simulation to ``until`` (or drain the event queue)."""
        return self.sim.run(until=until)

    @property
    def results(self) -> list[JobResult]:
        return list(self._results)
