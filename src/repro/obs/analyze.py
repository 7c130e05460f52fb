"""Trace analytics: reconstruct a run model from a recorded event stream.

The write side (:mod:`repro.obs.trace`) emits a typed JSONL event per
job-lifecycle transition, task attempt, Input Provider invocation, scan
execution, and sweep step. This module is the read side: given those
events it rebuilds

* a per-job model — task-attempt span tree, wave structure (one wave per
  input increment, paper §III-A), the full provider evaluation history,
  and the job's embedded metrics snapshot;
* a map-slot **utilization time series** (running map tasks over
  simulated time, per job and run-wide), the quantity behind the paper's
  §V-D throughput discussion;
* per-policy **summaries** — time-to-k, splits consumed, records
  scanned, evaluations — the rows of the paper's Figures 5–8 recomputed
  from a trace instead of from fresh simulation.

Everything here is a pure function of the event list: analyzing a trace
twice (or a trace of a re-run on the sim substrate) yields identical
models, which is what makes ``repro report`` byte-deterministic.

Both substrates are handled: the simulated cluster emits the full task
lifecycle (``map_started``/``map_finished``/…), while the LocalRunner
emits provider evaluations and ``scan_span`` events with no per-task
lifecycle and all times 0.0 — span trees and utilization series are
simply empty there, and split accounting falls back to scan spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ReproError


class TraceAnalysisError(ReproError):
    """The event stream cannot be assembled into a run model."""


# ---------------------------------------------------------------------------
# Model dataclasses
# ---------------------------------------------------------------------------
@dataclass
class TaskAttemptSpan:
    """One map-task attempt, from ``map_started`` to its terminal event."""

    task_id: str
    attempt: int | None = None
    node: str | None = None
    local: bool | None = None
    start: float | None = None
    end: float | None = None
    outcome: str | None = None  # "finished" | "failed" | None (no terminal)
    records: int = 0
    outputs: int = 0
    retried_as: str | None = None

    @property
    def duration(self) -> float | None:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start


@dataclass
class Evaluation:
    """One Input Provider invocation, as recorded in the trace."""

    seq: int
    time: float
    phase: str  # "initial" | "evaluate"
    policy: str | None
    knobs: dict | None
    progress: dict | None
    cluster: dict | None
    response_kind: str
    response_splits: int
    response_pruned: int = 0
    """Cumulative splits the provider retired via split statistics (zone
    maps / bloom filters) up to this evaluation; 0 for older traces."""
    response_ci: dict | None = None
    """Confidence-interval state an accuracy provider attached to this
    evaluation (estimate, half_width, met, …); None for other providers
    and for older traces."""


@dataclass
class Wave:
    """One input increment: the initial grab or one ``input_added``."""

    index: int
    time: float
    splits: int
    source: str  # "initial" | "input_added"


@dataclass
class JobModel:
    """Everything the trace records about one job."""

    job_id: str
    name: str | None = None
    policy: str | None = None
    knobs: dict | None = None
    dynamic: bool | None = None
    sample_size: int | None = None
    total_splits: int | None = None
    submit_time: float | None = None
    activate_time: float | None = None
    finish_time: float | None = None
    state: str | None = None  # "succeeded" | "killed" | None (still open)
    input_complete_time: float | None = None
    submitted_splits: int = 0
    input_added_events: list[tuple[float, int]] = field(default_factory=list)
    attempts: dict[str, TaskAttemptSpan] = field(default_factory=dict)
    attempt_order: list[str] = field(default_factory=list)
    evaluations: list[Evaluation] = field(default_factory=list)
    waves: list[Wave] = field(default_factory=list)
    reduce_start: float | None = None
    reduce_end: float | None = None
    reduce_outputs: int = 0
    scan_spans: list[dict] = field(default_factory=list)
    metrics: dict | None = None

    # -- derived ---------------------------------------------------------
    @property
    def response_time(self) -> float | None:
        """The paper's time-to-k: submission to completion."""
        if self.submit_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def splits_added(self) -> int:
        return sum(wave.splits for wave in self.waves)

    @property
    def splits_completed(self) -> int:
        """Map tasks that finished — the paper's "splits consumed".

        Prefers the task lifecycle (sim substrate); falls back to scan
        spans (LocalRunner) and then to the metrics snapshot.
        """
        finished = sum(1 for a in self.attempts.values() if a.outcome == "finished")
        if finished:
            return finished
        if self.scan_spans:
            return len(self.scan_spans)
        if self.metrics is not None:
            per_task = self.metrics.get("map_records_per_task")
            if per_task is not None:
                return per_task["value"]["count"] or 0
        return 0

    @property
    def records_processed(self) -> int:
        finished = sum(
            a.records for a in self.attempts.values() if a.outcome == "finished"
        )
        if finished:
            return finished
        if self.scan_spans:
            return sum(span["rows"] for span in self.scan_spans)
        if self.metrics is not None:
            entry = self.metrics.get("records_processed")
            if entry is not None:
                return entry["value"]
        return 0

    @property
    def map_outputs(self) -> int:
        produced = sum(
            a.outputs for a in self.attempts.values() if a.outcome == "finished"
        )
        if produced:
            return produced
        if self.metrics is not None:
            entry = self.metrics.get("outputs_produced")
            if entry is not None:
                return entry["value"]
        return 0

    @property
    def error_bounded(self) -> bool:
        """A ``WITHIN … ERROR`` job: its evaluations carry a ci state.

        Its map outputs are per-split group totals wherever rows were
        scanned, so they count groups, not predicate matches.
        """
        return any(e.response_ci is not None for e in self.evaluations)

    @property
    def failed_attempts(self) -> int:
        return sum(1 for a in self.attempts.values() if a.outcome == "failed")

    @property
    def splits_pruned(self) -> int:
        """Splits retired via split statistics without dispatch.

        The trace carries the provider's *cumulative* count on each
        evaluation, so the job-level total is the last one seen.
        """
        for evaluation in reversed(self.evaluations):
            if evaluation.response_pruned:
                return evaluation.response_pruned
        return 0

    @property
    def end_of_input_time(self) -> float | None:
        """When the provider declared END_OF_INPUT (or input completed)."""
        for evaluation in self.evaluations:
            if evaluation.response_kind == "END_OF_INPUT":
                return evaluation.time
        return self.input_complete_time

    def utilization(self) -> list[tuple[float, int]]:
        """Step series of this job's running map tasks over time.

        Each entry is ``(time, running_after_time)``; the series is empty
        when the trace carries no task lifecycle (LocalRunner).
        """
        deltas: list[tuple[float, int]] = []
        for attempt in self.attempts.values():
            if attempt.start is not None:
                deltas.append((attempt.start, +1))
            if attempt.end is not None:
                deltas.append((attempt.end, -1))
        if not deltas:
            return []
        deltas.sort()
        series: list[tuple[float, int]] = []
        running = 0
        for time, delta in deltas:
            running += delta
            if series and series[-1][0] == time:
                series[-1] = (time, running)
            else:
                series.append((time, running))
        return series

    def mean_running_maps(self) -> float | None:
        """Time-weighted mean of running map tasks over the map phase."""
        series = self.utilization()
        if not series or series[-1][0] <= series[0][0]:
            return None
        start, end = series[0][0], series[-1][0]
        area = 0.0
        for (t0, running), (t1, _next) in zip(series, series[1:]):
            area += running * (t1 - t0)
        return area / (end - start)


@dataclass
class RunModel:
    """One analyzed trace: jobs in first-appearance order plus run scope."""

    jobs: dict[str, JobModel] = field(default_factory=dict)
    cluster_metrics: list[dict] = field(default_factory=list)
    sweep_events: list[dict] = field(default_factory=list)
    total_map_slots: int | None = None
    events: int = 0

    def jobs_by_policy(self) -> dict[str, list[JobModel]]:
        grouped: dict[str, list[JobModel]] = {}
        for job in self.jobs.values():
            grouped.setdefault(job.policy or "(static)", []).append(job)
        return grouped


@dataclass
class PolicySummary:
    """Figure 5–8 style per-policy aggregates recomputed from a trace."""

    policy: str
    jobs: int
    time_to_k: float | None  # mean response time, seconds
    splits_consumed: float  # mean completed splits per job
    splits_added: float
    splits_total: float | None
    records_processed: float
    splits_pruned: float  # mean splits retired via split statistics
    evaluations: float
    increments: float
    failed_attempts: float
    mean_running_maps: float | None
    utilization_pct: float | None  # vs total map slots, when known


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------
_TERMINAL_OUTCOME = {"map_finished": "finished", "map_failed": "failed"}


def analyze_trace(events: Iterable[dict]) -> RunModel:
    """Fold an event stream (``load_trace`` output) into a :class:`RunModel`."""
    model = RunModel()

    def job_for(job_id: str) -> JobModel:
        job = model.jobs.get(job_id)
        if job is None:
            job = JobModel(job_id=job_id)
            model.jobs[job_id] = job
        return job

    for event in events:
        model.events += 1
        type_ = event["type"]
        time = event["time"]
        if type_ == "job_submitted":
            job = job_for(event["job_id"])
            job.submit_time = time
            detail = event.get("detail") or {}
            job.name = detail.get("name")
            job.dynamic = detail.get("dynamic")
            job.sample_size = detail.get("sample_size")
            job.total_splits = detail.get("total_splits")
            job.submitted_splits = detail.get("splits", 0)
        elif type_ == "job_activated":
            job_for(event["job_id"]).activate_time = time
        elif type_ == "input_added":
            job = job_for(event["job_id"])
            detail = event.get("detail") or {}
            job.input_added_events.append((time, detail.get("splits", 0)))
        elif type_ == "input_complete":
            job_for(event["job_id"]).input_complete_time = time
        elif type_ == "map_started":
            job = job_for(event["job_id"])
            task_id = event["task_id"]
            detail = event.get("detail") or {}
            attempt = job.attempts.get(task_id)
            if attempt is None:
                attempt = TaskAttemptSpan(task_id=task_id)
                job.attempts[task_id] = attempt
                job.attempt_order.append(task_id)
            attempt.start = time
            attempt.attempt = detail.get("attempt")
            attempt.node = detail.get("node")
            attempt.local = detail.get("local")
        elif type_ in _TERMINAL_OUTCOME:
            job = job_for(event["job_id"])
            task_id = event["task_id"]
            attempt = job.attempts.get(task_id)
            if attempt is None:
                attempt = TaskAttemptSpan(task_id=task_id)
                job.attempts[task_id] = attempt
                job.attempt_order.append(task_id)
            attempt.end = time
            attempt.outcome = _TERMINAL_OUTCOME[type_]
            detail = event.get("detail") or {}
            attempt.records = detail.get("records", 0)
            attempt.outputs = detail.get("outputs", 0)
        elif type_ == "map_retried":
            job = job_for(event["job_id"])
            detail = event.get("detail") or {}
            retry_id = event["task_id"]
            # Link the most recent failed attempt without a retry pointer.
            for task_id in reversed(job.attempt_order):
                previous = job.attempts[task_id]
                if previous.outcome == "failed" and previous.retried_as is None:
                    previous.retried_as = retry_id
                    break
            if retry_id not in job.attempts:
                job.attempts[retry_id] = TaskAttemptSpan(
                    task_id=retry_id, attempt=detail.get("attempt")
                )
                job.attempt_order.append(retry_id)
        elif type_ == "reduce_started":
            job_for(event["job_id"]).reduce_start = time
        elif type_ == "reduce_finished":
            job = job_for(event["job_id"])
            job.reduce_end = time
            detail = event.get("detail") or {}
            job.reduce_outputs = detail.get("outputs", 0)
        elif type_ in ("job_succeeded", "job_killed"):
            job = job_for(event["job_id"])
            job.finish_time = time
            job.state = "succeeded" if type_ == "job_succeeded" else "killed"
        elif type_ == "provider_evaluation":
            job = job_for(event["job_id"])
            response = event["response"]
            job.evaluations.append(
                Evaluation(
                    seq=event["seq"],
                    time=time,
                    phase=event["phase"],
                    policy=event.get("policy"),
                    knobs=event.get("knobs"),
                    progress=event.get("progress"),
                    cluster=event.get("cluster"),
                    response_kind=response["kind"],
                    response_splits=response["splits"],
                    response_pruned=response.get("pruned", 0),
                    response_ci=response.get("ci"),
                )
            )
            if job.policy is None:
                job.policy = event.get("policy")
            if job.knobs is None:
                job.knobs = event.get("knobs")
            cluster = event.get("cluster")
            if cluster and model.total_map_slots is None:
                model.total_map_slots = cluster.get("total_map_slots")
        elif type_ == "scan_span":
            owner = event.get("job_id")
            if owner:
                job_for(owner).scan_spans.append(event)
        elif type_ == "metrics_snapshot":
            if event["scope"] == "job" and event.get("job_id"):
                job_for(event["job_id"]).metrics = event["metrics"]
            else:
                model.cluster_metrics.append(event)
        elif type_.startswith("sweep_"):
            model.sweep_events.append(event)

    for job in model.jobs.values():
        job.waves = _build_waves(job)
    return model


def _build_waves(job: JobModel) -> list[Wave]:
    """Input increments: provider responses are the source of truth.

    The two substrates record ``job_submitted.splits`` differently (the
    sim attaches the initial grab at submission; the LocalRunner is
    handed the whole input up front), so for dynamic jobs — any job with
    provider evaluations — waves come from the provider's own grab
    history: the ``initial`` response plus every ``INPUT_AVAILABLE``
    answer. Static jobs get one wave from submission.
    """
    waves: list[Wave] = []
    if job.evaluations:
        for evaluation in job.evaluations:
            if evaluation.response_splits <= 0:
                continue
            source = (
                "initial" if evaluation.phase == "initial" else "input_added"
            )
            waves.append(
                Wave(
                    index=len(waves),
                    time=evaluation.time,
                    splits=evaluation.response_splits,
                    source=source,
                )
            )
        return waves
    if job.submitted_splits:
        waves.append(
            Wave(
                index=0,
                time=job.submit_time or 0.0,
                splits=job.submitted_splits,
                source="initial",
            )
        )
    for time, splits in job.input_added_events:
        waves.append(
            Wave(index=len(waves), time=time, splits=splits, source="input_added")
        )
    return waves


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def policy_summaries(model: RunModel) -> dict[str, PolicySummary]:
    """Per-policy aggregates over every job in the trace, name-sorted."""
    summaries: dict[str, PolicySummary] = {}
    for policy, jobs in sorted(model.jobs_by_policy().items()):
        times = [j.response_time for j in jobs if j.response_time is not None]
        running = [
            mean for mean in (j.mean_running_maps() for j in jobs) if mean is not None
        ]
        mean_running = _mean(running) if running else None
        utilization = None
        if mean_running is not None and model.total_map_slots:
            utilization = 100.0 * mean_running / model.total_map_slots
        totals = [float(j.total_splits) for j in jobs if j.total_splits is not None]
        summaries[policy] = PolicySummary(
            policy=policy,
            jobs=len(jobs),
            time_to_k=_mean(times) if times else None,
            splits_consumed=_mean([float(j.splits_completed) for j in jobs]),
            splits_added=_mean([float(j.splits_added) for j in jobs]),
            splits_total=_mean(totals) if totals else None,
            records_processed=_mean([float(j.records_processed) for j in jobs]),
            splits_pruned=_mean([float(j.splits_pruned) for j in jobs]),
            # Periodic evaluations only, matching JobResult.evaluations.
            evaluations=_mean(
                [
                    float(sum(1 for e in j.evaluations if e.phase == "evaluate"))
                    for j in jobs
                ]
            ),
            increments=_mean([float(len(j.waves)) for j in jobs]),
            failed_attempts=_mean([float(j.failed_attempts) for j in jobs]),
            mean_running_maps=mean_running,
            utilization_pct=utilization,
        )
    return summaries
