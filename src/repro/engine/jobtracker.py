"""The JobTracker: job lifecycle and slot dispatch.

Event-driven rather than heartbeat-driven: dispatch runs when a job is
submitted, when input is added to a dynamic job, and when any task
completes. Schedulers that decline slots (delay scheduling) additionally
get a periodic retry so their locality waits can expire.

Per the paper's design (§IV), the JobTracker is agnostic of Input
Providers and policies: it only ever sees "submit job with these splits",
"add these splits to job J", and "input complete for job J" messages from
the client side.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.cluster.costmodel import CostModel
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.topology import ClusterTopology
from repro.dfs.split import InputSplit
from repro.engine.job import ClusterStatus, Job, JobState
from repro.engine.jobconf import JobConf
from repro.engine.scheduler.base import TaskScheduler
from repro.engine.scheduler.fifo import FifoScheduler
from repro.engine.task import MapTask, ReduceTask
from repro.engine.tasktracker import TaskTracker
from repro.errors import JobError
from repro.sim.simulator import Simulator

JobListener = Callable[[Job], None]


class JobTracker:
    """Server-side daemon managing all jobs on the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        cost_model: CostModel | None = None,
        scheduler: TaskScheduler | None = None,
        metrics: ClusterMetrics | None = None,
        dispatch_delay: float = 1.5,
        failure_injector=None,
        straggler_model=None,
        trace=None,
    ) -> None:
        if dispatch_delay < 0:
            raise JobError(f"dispatch_delay must be >= 0, got {dispatch_delay}")
        self._sim = sim
        self._topology = topology
        self._cost = cost_model or CostModel()
        self.scheduler = scheduler or FifoScheduler()
        self.metrics = metrics
        self.failure_injector = failure_injector
        self.trace = trace
        """Optional :class:`repro.obs.trace.TraceRecorder`, the run's
        event log: lifecycle events are recorded into it, and
        TaskTrackers and the JobClient reach it through this attribute
        for scan spans and provider evaluations."""
        self.dispatch_delay = dispatch_delay
        """Latency between a state change and slot (re)assignment.

        Hadoop 0.20 assigns tasks only when a TaskTracker heartbeat
        arrives (3 s default period -> mean wait of about half that), so
        freed slots stay visibly *available* for a moment. Dynamic jobs
        rely on that: a conservative policy whose GrabLimit is a fraction
        of AS can only grow when an evaluation observes AS > 0, which
        never happens under instantaneous (delay 0) reassignment on a
        saturated cluster.
        """
        self._trackers = {
            node.node_id: TaskTracker(
                sim, node, topology, self._cost, self,
                failure_injector, straggler_model,
            )
            for node in topology.nodes
        }
        self._jobs: dict[str, Job] = {}
        self._active_jobs: list[Job] = []  # submission order
        self._listeners: dict[str, list[JobListener]] = {}
        self._dispatch_scheduled = False
        self._retry_handle = None
        self._node_rotation = itertools.cycle([n.node_id for n in topology.nodes])
        self._reduce_ids = itertools.count(1)
        # Per-tracker, so a job's id depends only on its submission order
        # within this cluster — not on process history (determinism: two
        # back-to-back runs must produce byte-identical JobResults).
        self._job_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Client-facing API
    # ------------------------------------------------------------------
    def submit_job(
        self,
        conf: JobConf,
        splits: list[InputSplit],
        *,
        input_complete: bool,
        total_splits_known: int,
        listener: JobListener | None = None,
    ) -> Job:
        """Register a new job. For static jobs ``input_complete`` is True
        and ``splits`` is the whole input; dynamic jobs start smaller."""
        job = Job(
            f"job_{next(self._job_ids):06d}",
            conf,
            total_splits_known=total_splits_known,
            submit_time=self._sim.now,
        )
        self._record(
            "job_submitted", job.job_id, name=conf.name,
            dynamic=conf.is_dynamic, splits=len(splits),
            input_complete=input_complete,
            total_splits=total_splits_known,
            sample_size=conf.sample_size,
        )
        self._jobs[job.job_id] = job
        self._active_jobs.append(job)
        if listener is not None:
            self.add_listener(job.job_id, listener)
        if splits:
            job.add_splits(splits)
        if input_complete:
            job.mark_input_complete()
        # Job setup (split computation, initialization) before tasks launch.
        self._sim.schedule(
            self._cost.job_setup_seconds, self._activate_job, job,
            label=f"job-setup:{job.job_id}",
        )
        return job

    def add_input(self, job_id: str, splits: list[InputSplit]) -> None:
        """The "input available" message: attach more splits to a dynamic job."""
        job = self.get_job(job_id)
        job.add_splits(splits)
        self._record("input_added", job.job_id, splits=len(splits))
        self._request_dispatch()

    def complete_input(self, job_id: str) -> None:
        """The "end of input" message: no further splits will arrive."""
        job = self.get_job(job_id)
        if job.input_complete:
            return
        job.mark_input_complete()
        self._record("input_complete", job.job_id)
        self._maybe_finish_maps(job)
        self._request_dispatch()

    def get_job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job {job_id}") from None

    def add_listener(self, job_id: str, listener: JobListener) -> None:
        self._listeners.setdefault(job_id, []).append(listener)

    def drop_listeners(self) -> None:
        """Forget every unfinished job's listeners (the cluster is dropped)."""
        self._listeners.clear()

    def cluster_status(self) -> ClusterStatus:
        queued = sum(len(job.pending_maps) for job in self._active_jobs)
        return ClusterStatus(
            total_map_slots=self._topology.total_map_slots,
            available_map_slots=self._topology.available_map_slots,
            running_map_tasks=self._topology.running_map_tasks,
            queued_map_tasks=queued,
        )

    # ------------------------------------------------------------------
    # Internal lifecycle
    # ------------------------------------------------------------------
    def _record(self, kind: str, job_id: str, *, task_id: str | None = None, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self._sim.now, kind, job_id, task_id=task_id, **detail)

    def _activate_job(self, job: Job) -> None:
        if job.state is not JobState.PREP:
            return
        job.state = JobState.RUNNING
        self._record("job_activated", job.job_id)
        # A dynamic job may have been granted zero initial splits (e.g. a
        # conservative policy on a saturated cluster); it still becomes
        # RUNNING and waits for its provider to add input.
        self._maybe_finish_maps(job)
        self._request_dispatch()

    def _request_dispatch(self) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self._sim.schedule(self.dispatch_delay, self._dispatch, label="dispatch")

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        schedulable = [
            job
            for job in self._active_jobs
            if job.state is JobState.RUNNING and not job.pending_maps.empty
        ]
        declined = False
        if schedulable:
            declined = self._assign_map_slots(schedulable)
        self._assign_reduce_slots()
        if declined:
            self._schedule_retry()
        elif self._retry_handle is not None:
            # The stall the retry timer was armed for has resolved: every
            # offerable slot was either filled or there is no pending work
            # left. Left alone, the stale timer would fire a phantom
            # dispatch whose coalescing window (_dispatch_scheduled) can
            # pull a *later* real dispatch earlier — leaking one job's
            # stall history into the next job's timing on a shared
            # cluster. Cancelling keeps "timer armed" equivalent to
            # "a decline is outstanding".
            self._retry_handle.cancel()
            self._retry_handle = None
        trace = self.trace
        if trace is not None and trace.listening:
            # Live slot-utilization sample for the recorder's listeners
            # after every dispatch pass. Listener-only, so the trace is
            # the same whoever listens, and nothing feeds back into
            # scheduling.
            trace.publish(
                "cluster_status", self._sim.now,
                total_map_slots=self._topology.total_map_slots,
                available_map_slots=self._topology.available_map_slots,
            )

    def _assign_map_slots(self, schedulable: list[Job]) -> bool:
        """Offer free map slots breadth-first across nodes: one task per
        node per pass, repeating until a pass assigns nothing.

        Hadoop 0.20 hands out roughly one map task per TaskTracker
        heartbeat, which spreads a small job's tasks over the nodes that
        store its data instead of stacking them onto whichever node is
        polled first — breadth-first assignment preserves that locality
        behaviour. Returns True if the scheduler declined offerable slots
        while work remained (delay scheduling).

        The scheduler orders the jobs once per call. An assignment can
        only empty the queue of the job it served, so that job alone
        leaves the live list, and no offer rescans the jobs.
        """
        declined = False
        topology = self._topology
        nodes = [
            topology.node(next(self._node_rotation))
            for _ in range(topology.num_nodes)
        ]
        live = self.scheduler.order_jobs(schedulable)
        now = self._sim.now
        trace = self.trace
        assigned_any = True
        while assigned_any:
            assigned_any = False
            for node in nodes:
                if node.free_map_slots <= 0:
                    continue
                task = self.scheduler.choose_map_task(node, live, now)
                if task is None:
                    declined = True
                    continue
                job = self.get_job(task.job_id)
                self._trackers[node.node_id].launch_map(job, task)
                job.map_started(task)
                if trace is not None:
                    trace.record(
                        now, "map_started", job.job_id, task_id=task.task_id,
                        node=node.node_id, local=bool(task.local),
                        attempt=task.attempt,
                    )
                assigned_any = True
                if job.pending_maps.empty:
                    live.remove(job)
                    if not live:
                        # No work left: a decline still counts while a
                        # slot it held stays free.
                        return declined and topology.available_map_slots > 0
        return declined and bool(live)

    def _assign_reduce_slots(self) -> None:
        for job in self._active_jobs:
            if job.state is JobState.RUNNING and job.ready_for_reduce:
                self._start_reduce(job)

    def _schedule_retry(self) -> None:
        """Arm the delay-scheduling retry timer (at most one outstanding).

        The timer disarms itself when it fires, so every later decline —
        a second locality-wait expiry, a third — arms a fresh one; a
        dispatch that resolves the stall cancels it (see ``_dispatch``).
        """
        delay = self.scheduler.retry_delay()
        if delay is None or self._retry_handle is not None:
            return

        def retry() -> None:
            self._retry_handle = None
            self._request_dispatch()

        self._retry_handle = self._sim.schedule(
            delay, retry, label="dispatch-retry"
        )

    @property
    def retry_pending(self) -> bool:
        """True while a dispatch-retry timer is armed (tests/tracing)."""
        return self._retry_handle is not None

    # ------------------------------------------------------------------
    # Completion callbacks (from TaskTrackers)
    # ------------------------------------------------------------------
    def on_map_complete(self, job: Job, task: MapTask, *, local: bool) -> None:
        job.map_finished(task)
        if self.trace is not None:
            self.trace.record(
                self._sim.now, "map_finished", job.job_id, task_id=task.task_id,
                outputs=task.outputs_produced, records=task.records_processed,
            )
        if self.metrics is not None:
            self.metrics.record_map_task(local=local)
        self._maybe_finish_maps(job)
        self._request_dispatch()

    def on_map_failed(self, job: Job, task: MapTask) -> None:
        """A map attempt failed: retry its split, or kill the job once
        the attempt budget is exhausted (Hadoop semantics)."""
        self._record(
            "map_failed", job.job_id, task_id=task.task_id, attempt=task.attempt
        )
        retry = job.map_failed(task)
        if retry is None:
            if not job.finished:
                self._kill_job(job)
        else:
            self._record(
                "map_retried", job.job_id, task_id=retry.task_id,
                attempt=retry.attempt, split=retry.split.split_id,
            )
        self._request_dispatch()

    def _kill_job(self, job: Job) -> None:
        job.state = JobState.KILLED
        job.finish_time = self._sim.now
        self._record("job_killed", job.job_id)
        self._snapshot_job_metrics(job)
        if job in self._active_jobs:
            self._active_jobs.remove(job)
        for listener in self._listeners.pop(job.job_id, []):
            listener(job)

    def on_reduce_complete(self, job: Job, task: ReduceTask) -> None:
        self._record(
            "reduce_finished", job.job_id, task_id=task.task_id,
            outputs=task.outputs_produced,
        )
        self._sim.schedule(
            self._cost.job_cleanup_seconds,
            self._finish_job,
            job,
            label=f"job-cleanup:{job.job_id}",
        )
        self._request_dispatch()

    def _maybe_finish_maps(self, job: Job) -> None:
        """Move to reduce (or straight to done) once maps cannot progress."""
        if job.state is not JobState.RUNNING:
            return
        if not (job.input_complete and job.maps_done):
            return
        if job.conf.num_reduce_tasks == 0:
            if job.reduce_task is None and job.finish_time is None:
                self._sim.schedule(
                    self._cost.job_cleanup_seconds, self._finish_job, job,
                    label=f"job-cleanup:{job.job_id}",
                )
        # Reduce start is handled by _assign_reduce_slots via dispatch.

    def _start_reduce(self, job: Job) -> None:
        node = self._pick_reduce_node()
        if node is None:
            return  # retried on next dispatch
        task = ReduceTask(
            task_id=f"{job.job_id}_r_{next(self._reduce_ids):06d}",
            job_id=job.job_id,
        )
        job.reduce_task = task
        self._record("reduce_started", job.job_id, task_id=task.task_id,
                      node=node.node_id)
        self._trackers[node.node_id].launch_reduce(job, task)

    def _pick_reduce_node(self):
        best = None
        for node in self._topology.nodes:
            if node.free_reduce_slots > 0 and (
                best is None or node.free_reduce_slots > best.free_reduce_slots
            ):
                best = node
        return best

    def _snapshot_job_metrics(self, job: Job) -> None:
        """Export the job's registry into the trace at end of life."""
        if self.trace is not None:
            self.trace.metrics_snapshot(
                self._sim.now, scope="job", job_id=job.job_id,
                metrics=job.metrics.snapshot(),
            )

    def _finish_job(self, job: Job) -> None:
        if job.finished:
            return
        job.state = JobState.SUCCEEDED
        job.finish_time = self._sim.now
        self._record("job_succeeded", job.job_id)
        self._snapshot_job_metrics(job)
        self._active_jobs.remove(job)
        for listener in self._listeners.pop(job.job_id, []):
            listener(job)
        self._request_dispatch()
