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
from typing import Any, Iterable

from repro.core.protocol import ClusterStatus, JobProgress
from repro.dfs.split import InputSplit
from repro.engine.jobconf import JobConf
from repro.engine.task import MapTask, PendingTaskQueue, ReduceTask
from repro.errors import JobError
from repro.obs.metrics import Histogram, metric

__all__ = [
    "ClusterStatus",
    "Job",
    "JobProgress",
    "JobResult",
    "JobState",
    "job_metrics_snapshot",
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
    """The job-scope snapshot (:func:`job_metrics_snapshot`), the same
    dict as the job's ``metrics_snapshot`` trace event. Deterministic:
    counts only."""
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


def job_metrics_snapshot(
    records_per_task: Iterable[int],
    *,
    records_processed: int,
    outputs_produced: int,
    records_pending: int,
    evaluations: int,
    input_increments: int,
    failed_map_attempts: int,
    splits_pruned: int | None = None,
) -> dict:
    """The job-scope snapshot, on both substrates: ``{name: {"kind",
    "value"}}`` sorted by name, with ``map_records_per_task`` a
    histogram over the finished map tasks in finishing order.

    ``splits_pruned`` is included only when given: the LocalRunner
    reports it, the simulated job's snapshot never has.
    """
    snapshot = {
        "failed_map_attempts": metric("counter", failed_map_attempts),
        "input_increments": metric("counter", input_increments),
        "map_records_per_task": metric(
            "histogram", Histogram("map_records_per_task", records_per_task).snapshot()
        ),
        "outputs_produced": metric("counter", outputs_produced),
        "provider_evaluations": metric("counter", evaluations),
        "records_pending": metric("gauge", records_pending),
        "records_processed": metric("counter", records_processed),
    }
    if splits_pruned is not None:
        snapshot["splits_pruned"] = metric("counter", splits_pruned)
    return snapshot


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

        # Progress counters (paper §III-A): what Input Providers decide
        # from, and what the job's metrics snapshot reports.
        self.records_processed = 0
        self.outputs_produced = 0
        self.records_pending = 0
        self.evaluations = 0
        self.input_increments = 0
        self.failed_map_attempts = 0
        self._added_split_ids: set[str] = set()

        # Fair-scheduler bookkeeping: when this job last received a local
        # assignment opportunity (delay scheduling).
        self.locality_wait_start: float | None = None

        # Set by the JobClient's completion listener from the job's
        # Input Provider: the error-bounded aggregation summary (accuracy
        # providers only) and the splits it retired via statistics.
        self.approx: dict | None = None
        self.splits_pruned = 0

        self.metrics_snapshot: dict | None = None
        """Built once, by :meth:`finish`."""

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
            self.records_pending += split.num_records
            tasks.append(task)
        if splits:
            self.input_increments += 1
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
        self.records_processed += task.records_processed
        self.outputs_produced += task.outputs_produced
        self.records_pending -= task.split.num_records

    def map_failed(self, task: MapTask) -> MapTask | None:
        """Record a failed attempt; returns the retry attempt, or None
        when the task is out of attempts and the job must be killed.

        The split stays *pending* throughout (``records_pending`` is
        untouched), so Input Providers keep accounting for it.
        """
        removed = self.running_maps.pop(task.task_id, None)
        if removed is None:
            raise JobError(f"job {self.job_id}: unknown running map {task.task_id}")
        self.failed_map_attempts += 1
        max_attempts = self.conf.get_int(MAX_ATTEMPTS_PARAM, 4)
        if task.attempt >= max_attempts:
            return None
        retry = task.retry()
        self.all_map_tasks[retry.task_id] = retry
        self.pending_maps.add(retry)
        return retry

    def record_evaluation(self) -> None:
        """Count one Input Provider evaluation (called by the client side)."""
        self.evaluations += 1

    def finish(self, state: JobState, time: float) -> None:
        """End the job (succeeded or killed) and build its metrics
        snapshot, which its trace event and its result share."""
        self.state = state
        self.finish_time = time
        self.metrics_snapshot = job_metrics_snapshot(
            [task.records_processed for task in self.completed_maps],
            records_processed=self.records_processed,
            outputs_produced=self.outputs_produced,
            records_pending=self.records_pending,
            evaluations=self.evaluations,
            input_increments=self.input_increments,
            failed_map_attempts=self.failed_map_attempts,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
            metrics_snapshot=self.metrics_snapshot,
            splits_pruned=self.splits_pruned,
            approx=self.approx,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id}, {self.state.value}, "
            f"maps={self.splits_completed}/{self.splits_added}, "
            f"eoi={self.input_complete})"
        )
