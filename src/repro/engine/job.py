"""Job state: lifecycle, counters, and the progress snapshots handed to
Input Providers.

A *dynamic* job (paper §III) starts with a subset of its input splits and
grows via "add input" messages until its Input Provider declares end of
input; the reduce phase is held back until then. A *static* job receives
all splits at submission with input already complete (Hadoop's default
model — the paper's 'Hadoop' policy).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.protocol import ClusterStatus, JobProgress
from repro.dfs.split import InputSplit
from repro.engine.jobconf import JobConf
from repro.engine.task import MapTask, PendingTaskQueue, ReduceTask
from repro.errors import JobError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ClusterStatus",
    "Job",
    "JobProgress",
    "JobResult",
    "JobState",
]


class JobState(enum.Enum):
    PREP = "prep"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    KILLED = "killed"


MAX_ATTEMPTS_PARAM = "mapred.map.max.attempts"
"""Attempts per map task before the job is killed (Hadoop parameter)."""


@dataclass
class JobResult:
    """Everything a caller learns from a finished job."""

    job_id: str
    name: str
    state: JobState
    submit_time: float
    finish_time: float
    splits_total: int
    splits_processed: int
    records_processed: int
    map_outputs_produced: int
    outputs_produced: int
    output_data: list[tuple[Any, Any]] | None
    evaluations: int
    input_increments: int
    failed_map_attempts: int = 0
    metrics_snapshot: dict | None = None
    """``MetricsRegistry.snapshot()`` of the job's registry, when one
    was kept. Deterministic: counts and simulated-time values only."""
    splits_pruned: int = 0
    """Splits the provider retired via split statistics without
    dispatching a map task (provably zero matches)."""
    approx: dict | None = None
    """Error-bounded aggregation summary (``InputProvider
    .approx_summary()`` of an accuracy job): per-group estimates with CI
    half-widths.
    None for every other provider / job shape."""

    @property
    def response_time(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def sample(self) -> list:
        """The output values (sampled rows for a sampling job)."""
        if self.output_data is None:
            return []
        return [value for _key, value in self.output_data]


class Job:
    """Mutable job state tracked by the JobTracker."""

    _task_ids = itertools.count(1)

    def __init__(
        self,
        job_id: str,
        conf: JobConf,
        *,
        total_splits_known: int,
        submit_time: float,
    ) -> None:
        self.job_id = job_id
        self.conf = conf
        self.state = JobState.PREP
        self.submit_time = submit_time
        self.finish_time: float | None = None
        self.total_splits_known = total_splits_known
        self.input_complete = False

        self.pending_maps = PendingTaskQueue()
        self.running_maps: dict[str, MapTask] = {}
        self.completed_maps: list[MapTask] = []
        self.all_map_tasks: dict[str, MapTask] = {}
        self.reduce_task: ReduceTask | None = None

        # All job accounting lives in one registry (obs layer); the
        # legacy counter names remain readable as properties below.
        self.metrics = MetricsRegistry(scope=f"job:{job_id}")
        self._records_processed = self.metrics.counter("records_processed")
        self._outputs_produced = self.metrics.counter("outputs_produced")
        self._records_pending = self.metrics.gauge("records_pending")
        self._evaluations = self.metrics.counter("provider_evaluations")
        self._input_increments = self.metrics.counter("input_increments")
        self._failed_map_attempts = self.metrics.counter("failed_map_attempts")
        self._map_records = self.metrics.histogram("map_records_per_task")
        self._added_split_ids: set[str] = set()

        # Fair-scheduler bookkeeping: when this job last received a local
        # assignment opportunity (delay scheduling).
        self.locality_wait_start: float | None = None

        # Error-bounded aggregation summary, set by the JobClient's
        # completion listener when the job ran an accuracy provider.
        self.approx: dict | None = None

    # ------------------------------------------------------------------
    # Input growth
    # ------------------------------------------------------------------
    def add_splits(self, splits: list[InputSplit]) -> list[MapTask]:
        """Attach new input splits; returns the created (pending) map tasks."""
        if self.input_complete:
            raise JobError(f"job {self.job_id}: cannot add input after end-of-input")
        if self.state not in (JobState.PREP, JobState.RUNNING):
            raise JobError(f"job {self.job_id}: cannot add input in state {self.state}")
        tasks = []
        for split in splits:
            if split.split_id in self._added_split_ids:
                raise JobError(
                    f"job {self.job_id}: split {split.split_id} added twice"
                )
            self._added_split_ids.add(split.split_id)
            task = MapTask(
                task_id=f"{self.job_id}_m_{next(self._task_ids):06d}",
                job_id=self.job_id,
                split=split,
            )
            self.all_map_tasks[task.task_id] = task
            self.pending_maps.add(task)
            self._records_pending.inc(split.num_records)
            tasks.append(task)
        if splits:
            self._input_increments.inc()
        return tasks

    def mark_input_complete(self) -> None:
        self.input_complete = True

    # ------------------------------------------------------------------
    # Task lifecycle (called by the JobTracker)
    # ------------------------------------------------------------------
    def map_started(self, task: MapTask) -> None:
        self.running_maps[task.task_id] = task

    def map_finished(self, task: MapTask) -> None:
        removed = self.running_maps.pop(task.task_id, None)
        if removed is None:
            raise JobError(f"job {self.job_id}: unknown running map {task.task_id}")
        self.completed_maps.append(task)
        self._records_processed.inc(task.records_processed)
        self._outputs_produced.inc(task.outputs_produced)
        self._records_pending.dec(task.split.num_records)
        self._map_records.observe(task.records_processed)

    def map_failed(self, task: MapTask) -> MapTask | None:
        """Record a failed attempt; returns the retry attempt, or None
        when the task is out of attempts and the job must be killed.

        The split stays *pending* throughout (``records_pending`` is
        untouched), so Input Providers keep accounting for it.
        """
        removed = self.running_maps.pop(task.task_id, None)
        if removed is None:
            raise JobError(f"job {self.job_id}: unknown running map {task.task_id}")
        self._failed_map_attempts.inc()
        max_attempts = self.conf.get_int(MAX_ATTEMPTS_PARAM, 4)
        if task.attempt >= max_attempts:
            return None
        retry = task.retry()
        self.all_map_tasks[retry.task_id] = retry
        self.pending_maps.add(retry)
        return retry

    def record_evaluation(self) -> None:
        """Count one Input Provider evaluation (called by the client side)."""
        self._evaluations.inc()

    # ------------------------------------------------------------------
    # Introspection — counters are registry-backed; the names predate
    # the obs layer and stay readable for callers and tests.
    # ------------------------------------------------------------------
    @property
    def records_processed(self) -> int:
        return self._records_processed.value

    @property
    def outputs_produced(self) -> int:
        return self._outputs_produced.value

    @property
    def records_pending(self) -> int:
        return self._records_pending.value

    @property
    def evaluations(self) -> int:
        return self._evaluations.value

    @property
    def input_increments(self) -> int:
        return self._input_increments.value

    @property
    def failed_map_attempts(self) -> int:
        return self._failed_map_attempts.value

    @property
    def splits_added(self) -> int:
        return len(self._added_split_ids)

    @property
    def splits_completed(self) -> int:
        return len(self.completed_maps)

    @property
    def splits_pending(self) -> int:
        return self.splits_added - self.splits_completed

    @property
    def maps_done(self) -> bool:
        return self.pending_maps.empty and not self.running_maps

    @property
    def ready_for_reduce(self) -> bool:
        """Reduce may start only after end-of-input AND all maps finished
        (paper §III-A); map-only jobs never enter a reduce phase."""
        return (
            self.conf.num_reduce_tasks > 0
            and self.input_complete
            and self.maps_done
            and self.reduce_task is None
        )

    @property
    def finished(self) -> bool:
        return self.state in (JobState.SUCCEEDED, JobState.KILLED)

    def progress(self) -> JobProgress:
        return JobProgress(
            job_id=self.job_id,
            total_splits_known=self.total_splits_known,
            splits_added=self.splits_added,
            splits_completed=self.splits_completed,
            splits_pending=self.splits_pending,
            records_processed=self.records_processed,
            outputs_produced=self.outputs_produced,
            records_pending=self.records_pending,
        )

    def to_result(self) -> JobResult:
        if self.finish_time is None:
            raise JobError(f"job {self.job_id} has not finished")
        reduce_outputs = (
            self.reduce_task.outputs_produced if self.reduce_task is not None else 0
        )
        output_data = (
            self.reduce_task.output_data if self.reduce_task is not None else None
        )
        return JobResult(
            job_id=self.job_id,
            name=self.conf.name,
            state=self.state,
            submit_time=self.submit_time,
            finish_time=self.finish_time,
            splits_total=self.total_splits_known,
            splits_processed=self.splits_completed,
            records_processed=self.records_processed,
            map_outputs_produced=self.outputs_produced,
            outputs_produced=reduce_outputs,
            output_data=output_data,
            evaluations=self.evaluations,
            input_increments=self.input_increments,
            failed_map_attempts=self.failed_map_attempts,
            metrics_snapshot=self.metrics.snapshot(),
            approx=self.approx,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id}, {self.state.value}, "
            f"maps={self.splits_completed}/{self.splits_added}, "
            f"eoi={self.input_complete})"
        )
