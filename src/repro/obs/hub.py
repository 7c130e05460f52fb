"""The live telemetry hub: streaming metrics and alerts while jobs run.

Every observability layer so far (trace, analyze, audit, report) is
post-hoc — you learn what a job did after it finishes. The
:class:`TelemetryHub` is the live complement: a thread-safe aggregator
that subscribes to :class:`~repro.obs.trace.TraceRecorder` event streams
as a listener (:meth:`~TelemetryHub.attach`) and folds every event into
bounded ``(t, value)`` series (``deque(maxlen=SERIES_POINTS)``) and
log-bucket histograms, multiplexed across concurrent jobs by job id.
The stream is its only input, so a hub sees exactly the runs whose
recorder it is attached to. Besides the logged events it folds the
recorder's two listener-only events
(:meth:`~repro.obs.trace.TraceRecorder.publish`):

* ``cluster_status`` — the JobTracker's slot counts after each dispatch
  pass;
* ``worker_delta`` — a process map worker's cumulative progress, which
  the LocalRunner publishes as each delta arrives on the worker's pipe,
  so long-running worker scans appear in the live series *before*
  their task completes.

Maintained live series and histograms:

=====================  ==================================================
rows/s                 per-job cumulative scanned rows (a series;
                       renderers derive per-second rates)
slot utilization       cluster-wide ``busy/total`` map slots, from
                       provider evaluations and ``cluster_status``
grab-to-grant          per-job latency from an Input Provider granting a
                       split to that split's map task starting
                       (histogram: p50/p95/p99 at any instant)
per-job progress       splits added/completed, running maps, outputs
CI half-width          accuracy jobs' interval convergence over time
=====================  ==================================================

Live alerts: after each event of a running job the hub re-runs four of
the doctor's detectors (:mod:`repro.obs.detect`) on that job's state —
a straggling attempt, granted splits left undispatched (scheduler
stall), idle slots between waves (slot starvation) and a CI that stopped
shrinking. An alert carries the event time it first fired, clears
itself when the condition passes, and all of a job's alerts clear when
it ends. The checks use the substrate's event clock, so LocalRunner
traces (every event at 0.0) never alert; the post-hoc ``repro doctor``
covers them.

The hub is **strictly read-side**: it never mutates events, consumes no
randomness, and attaching it changes no job output bytes (the hub
parity suite asserts this across both substrates and both map
executors). Consumers — ``repro top``, the Prometheus
exporter — read a consistent :meth:`snapshot` under the hub lock.

Time axes: points are stamped with the wall clock
(:func:`time.perf_counter`) at receipt, which is the only axis that
exists on both substrates. Grab-to-grant latencies prefer the
*event* clock (simulated seconds) when the substrate provides one, so
simulated latency percentiles are deterministic; the LocalRunner stamps
every event ``time=0.0`` and falls back to wall-clock deltas.
"""

from __future__ import annotations

import threading
from collections import deque
from statistics import median_high
from time import perf_counter

from repro.obs.detect import (
    CI_MIN_SHRINK,
    CI_WINDOW,
    STALL_INTERVAL_MULTIPLE,
    STARVATION_IDLE_FRACTION,
)
from repro.obs.metrics import Histogram

#: Points kept per live series (bounded memory however long the run).
SERIES_POINTS = 512

#: Live straggler: a running attempt this many times the median completed
#: duration (same spirit as the post-hoc MAD rule, but computable before
#: the attempt ends).
LIVE_STRAGGLER_MULTIPLE = 3.0
LIVE_STRAGGLER_MIN_SAMPLES = 4


class JobTelemetry:
    """Live state for one job, keyed by job id inside the hub.

    Plain attributes, mutated only under the hub lock.
    """

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.name: str | None = None
        self.policy: str | None = None
        self.state = "running"
        self.total_splits: int | None = None
        self.sample_size: int | None = None
        self.splits_added = 0
        self.splits_completed = 0
        self.rows_total = 0
        self.outputs_total = 0
        self.evaluations = 0
        self.rows_series: deque[tuple[float, float]] = deque(maxlen=SERIES_POINTS)
        self.grab_to_grant = Histogram("grab_to_grant_s")
        self.ci_series: deque[tuple[float, float]] = deque(maxlen=SERIES_POINTS)
        self.ci_last: dict | None = None
        # The job's EvaluationInterval, from its provider evaluations' knobs.
        self.interval: float | None = None
        # Pending grant markers: (event_time, wall_time), one per granted
        # split, consumed by map_started (sim) or scan_span (local).
        self.pending_grants: deque[tuple[float, float]] = deque()
        # True once a map_started was seen: that substrate's scan_span
        # events then stop consuming grants / driving counters (the
        # lifecycle events are authoritative there).
        self.uses_map_started = False
        # Attempt accounting on the event clock, for the live alerts:
        # running attempts' start times by task id, finished attempts'
        # durations, and the busy and idle map time so far.
        self.running: dict[str, float] = {}
        self.durations: list[float] = []
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.idle_since: float | None = None
        # Active alerts by detector name.
        self.alerts: dict[str, dict] = {}
        # In-flight worker progress: (partition -> cumulative rows), kept
        # separate from rows_total so completed-task accounting stays
        # authoritative and live rows never double-count. A task's
        # deltas reach the hub before its results, hence before the
        # scan_span that clears them.
        self.worker_live: dict[int, int] = {}
        # Worker-side chunk scan rates (rows/s per flushed chunk).
        self.worker_rate = Histogram("worker_rows_per_s")
        self.worker_deltas = 0

    @property
    def rows_now(self) -> int:
        """Authoritative completed rows plus live in-flight worker rows."""
        return self.rows_total + sum(self.worker_live.values())

    def check_alerts(self, now: float) -> None:
        """Raise, update or clear each live alert at event time ``now``."""
        for detector, severity, check in _LIVE_CHECKS:
            message = check(self, now)
            if message is None:
                self.alerts.pop(detector, None)
                continue
            previous = self.alerts.get(detector)
            self.alerts[detector] = {
                "job_id": self.job_id,
                "detector": detector,
                "severity": severity,
                "message": message,
                "since": now if previous is None else previous["since"],
            }

    def snapshot(self) -> dict:
        g = self.grab_to_grant
        return {
            "job_id": self.job_id,
            "name": self.name,
            "policy": self.policy,
            "state": self.state,
            "total_splits": self.total_splits,
            "sample_size": self.sample_size,
            "splits_added": self.splits_added,
            "splits_completed": self.splits_completed,
            "running_maps": len(self.running),
            "evaluations": self.evaluations,
            "rows_total": self.rows_now,
            "outputs_total": self.outputs_total,
            "rows_series": list(self.rows_series),
            "grab_to_grant": {"count": g.count, "total": g.total, **g.quantiles()},
            "ci": self.ci_last,
            "ci_series": list(self.ci_series),
            "worker": {
                "live_tasks": len(self.worker_live),
                "live_rows": sum(self.worker_live.values()),
                "deltas": self.worker_deltas,
                "chunk_rate": {
                    "count": self.worker_rate.count,
                    "total": self.worker_rate.total,
                    **self.worker_rate.quantiles(),
                },
            },
        }


# ---------------------------------------------------------------------------
# Live alert checks: each returns the alert message, or None when quiet
# ---------------------------------------------------------------------------
def _straggler(job: JobTelemetry, now: float) -> str | None:
    if len(job.durations) < LIVE_STRAGGLER_MIN_SAMPLES or not job.running:
        return None
    median = median_high(job.durations)
    worst_id, worst_age = None, 0.0
    for task_id, start in sorted(job.running.items()):
        age = now - start
        if age > LIVE_STRAGGLER_MULTIPLE * median and age > worst_age:
            worst_id, worst_age = task_id, age
    if worst_id is None or median <= 0:
        return None
    return f"attempt {worst_id} running {worst_age:.1f}s vs median {median:.1f}s"


def _scheduler_stall(job: JobTelemetry, now: float) -> str | None:
    if not job.pending_grants or not job.interval:
        return None
    waited = now - job.pending_grants[-1][0]
    if waited <= STALL_INTERVAL_MULTIPLE * job.interval:
        return None
    return (
        f"{len(job.pending_grants)} granted splits undispatched for "
        f"{waited:.1f}s (EvaluationInterval {job.interval:g}s)"
    )


def _slot_starvation(job: JobTelemetry, now: float) -> str | None:
    idle = job.idle_s
    if job.idle_since is not None:
        idle += max(0.0, now - job.idle_since)
    elapsed = idle + job.busy_s
    if job.busy_s <= 0 or idle / elapsed <= STARVATION_IDLE_FRACTION:
        return None
    return (
        f"slots idle {100.0 * idle / elapsed:.0f}% of the map "
        f"phase so far ({idle:.1f}s idle)"
    )


def _ci_stall(job: JobTelemetry, now: float) -> str | None:
    if len(job.ci_series) <= CI_WINDOW or (job.ci_last or {}).get("met"):
        return None
    first = job.ci_series[-(CI_WINDOW + 1)][1]
    last = job.ci_series[-1][1]
    if first <= 0 or (first - last) / first >= CI_MIN_SHRINK:
        return None
    return (
        f"CI half-width ±{last:.4g} shrank "
        f"{100.0 * (first - last) / first:.2f}% over the "
        f"last {CI_WINDOW} evaluations"
    )


_LIVE_CHECKS = (
    ("straggler", "warning", _straggler),
    ("scheduler_stall", "critical", _scheduler_stall),
    ("slot_starvation", "warning", _slot_starvation),
    ("ci_stall", "warning", _ci_stall),
)


class TelemetryHub:
    """Aggregator of live run telemetry from the recorders it attaches to.

    Call :meth:`attach` with the run's TraceRecorder to start receiving
    its events; used as a context manager (``with TelemetryHub() as
    hub:``), the hub detaches from every recorder on exit.
    """

    def __init__(self, *, clock=perf_counter) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self.started_wall = clock()
        self.jobs: dict[str, JobTelemetry] = {}
        self.slot_series: deque[tuple[float, float]] = deque(maxlen=SERIES_POINTS)
        self.slots_total: int | None = None
        self.slots_available: int | None = None
        self.sweep: dict | None = None
        self.events_seen = 0
        self._recorders: list = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, recorder) -> "TelemetryHub":
        """Subscribe to a TraceRecorder's event stream; returns self."""
        recorder.add_listener(self.on_event)
        self._recorders.append(recorder)
        return self

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc_info) -> None:
        for recorder in self._recorders:
            recorder.remove_listener(self.on_event)
        self._recorders.clear()

    # ------------------------------------------------------------------
    # Event ingestion (TraceRecorder listener)
    # ------------------------------------------------------------------
    def on_event(self, event: dict) -> None:
        """Fold one trace event into the live state, then re-check its
        job's live alerts (thread-safe)."""
        with self._lock:
            self.events_seen += 1
            handler = _EVENT_HANDLERS.get(event["type"])
            if handler is not None:
                handler(self, event, self._clock())
            job = self.jobs.get(event.get("job_id"))
            if job is not None and job.state == "running":
                job.check_alerts(float(event.get("time") or 0.0))

    def _job(self, job_id: str) -> JobTelemetry:
        job = self.jobs.get(job_id)
        if job is None:
            job = self.jobs[job_id] = JobTelemetry(job_id)
        return job

    def _on_job_submitted(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"])
        detail = event.get("detail") or {}
        job.name = detail.get("name")
        job.total_splits = detail.get("total_splits")
        job.sample_size = detail.get("sample_size")
        # A static job's whole input; a dynamic job's initial evaluation
        # then sets the count from its grant.
        job.splits_added += detail.get("splits") or 0

    def _on_provider_evaluation(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"])
        job.policy = event.get("policy")
        if event.get("phase") == "evaluate":
            job.evaluations += 1
        interval = (event.get("knobs") or {}).get("evaluation_interval")
        if interval is not None:
            job.interval = float(interval)
        response = event.get("response") or {}
        splits = response.get("splits") or 0
        if event.get("phase") == "initial":
            # The initial grab is the job's first input: the LocalRunner's
            # job_submitted counts the whole input file, the simulator's
            # this grab.
            job.splits_added = splits
        else:
            job.splits_added += splits
        job.pending_grants.extend([(event["time"], wall)] * splits)
        ci = response.get("ci")
        if isinstance(ci, dict):
            job.ci_last = ci
            half = ci.get("half_width")
            if half is not None:
                job.ci_series.append((wall, float(half)))
        cluster = event.get("cluster")
        if isinstance(cluster, dict):
            self._on_cluster_status(cluster, wall)

    def _on_input_added(self, event: dict, wall: float) -> None:
        # splits_added is driven by provider grants (both substrates emit
        # them); input_added only makes sure the job exists.
        self._job(event["job_id"])

    def _on_map_started(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"])
        job.uses_map_started = True
        time = event["time"]
        if not job.running and job.idle_since is not None:
            job.idle_s += max(0.0, time - job.idle_since)
            job.idle_since = None
        job.running[event.get("task_id") or ""] = time
        self._consume_grant(job, time, wall)

    def _consume_grant(self, job: JobTelemetry, event_time: float, wall: float) -> None:
        if not job.pending_grants:
            return  # retries and untracked grants: skip, never go negative
        granted_time, granted_wall = job.pending_grants.popleft()
        # Prefer the substrate's own clock (simulated seconds) when it
        # carries information; the LocalRunner stamps everything 0.0.
        if event_time > granted_time or event_time > 0:
            latency = event_time - granted_time
        else:
            latency = wall - granted_wall
        job.grab_to_grant.observe(max(0.0, latency))

    def _end_attempt(self, event: dict) -> JobTelemetry:
        """Retire a map attempt; returns its job."""
        job = self._job(event["job_id"])
        time = event["time"]
        start = job.running.pop(event.get("task_id") or "", None)
        if start is not None and time >= start:
            if event["type"] == "map_finished":
                job.durations.append(time - start)
            job.busy_s += time - start
        if not job.running and job.state == "running":
            job.idle_since = time
        return job

    def _on_map_finished(self, event: dict, wall: float) -> None:
        job = self._end_attempt(event)
        job.splits_completed += 1
        detail = event.get("detail") or {}
        job.rows_total += detail.get("records") or 0
        job.outputs_total += detail.get("outputs") or 0
        job.rows_series.append((wall, float(job.rows_now)))

    def _on_map_failed(self, event: dict, wall: float) -> None:
        self._end_attempt(event)

    def _on_scan_span(self, event: dict, wall: float) -> None:
        job_id = event.get("job_id")
        if not job_id:
            return
        job = self._job(job_id)
        if job.uses_map_started:
            # Simulated substrate: map_finished already drives counters.
            return
        self._consume_grant(job, event["time"], wall)
        job.splits_completed += 1
        job.rows_total += event.get("rows") or 0
        job.outputs_total += event.get("outputs") or 0
        job.worker_live.clear()
        job.rows_series.append((wall, float(job.rows_now)))

    def _on_job_finished(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"])
        job.state = "succeeded" if event["type"] == "job_succeeded" else "killed"
        job.pending_grants.clear()
        job.worker_live.clear()
        job.alerts.clear()
        job.rows_series.append((wall, float(job.rows_now)))

    def _on_sweep_started(self, event: dict, wall: float) -> None:
        self.sweep = {"points": event.get("points"), "done": 0, "cached": 0}

    def _on_sweep_point(self, event: dict, wall: float) -> None:
        if self.sweep is None:
            self.sweep = {"points": None, "done": 0, "cached": 0}
        self.sweep["done"] += 1
        if event.get("cached"):
            self.sweep["cached"] += 1

    def _on_cluster_status(self, status: dict, wall: float) -> None:
        """Record live slot availability: a ``cluster_status`` event, or
        a provider evaluation's ``cluster`` dict (same two keys)."""
        total = status.get("total_map_slots")
        available = status.get("available_map_slots")
        if not total:
            return
        self.slots_total = total
        self.slots_available = available
        busy = total - (available or 0)
        self.slot_series.append((wall, busy / total))

    def _on_worker_delta(self, event: dict, wall: float) -> None:
        """Fold one live worker chunk checkpoint into the job's series.

        Deltas carry *cumulative* rows per (job, partition), so folding
        is idempotent: a repeated or reordered delta never inflates
        counts (max-so-far per partition).
        """
        job = self._job(event["job_id"])
        if job.state != "running":
            return
        partition = event["partition"]
        previous = job.worker_live.get(partition, 0)
        job.worker_live[partition] = max(previous, event["rows_scanned"])
        job.worker_deltas += 1
        if event["wall_s"] > 0 and event["chunk_rows"] > 0:
            job.worker_rate.observe(event["chunk_rows"] / event["wall_s"])
        job.rows_series.append((wall, float(job.rows_now)))

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A consistent, JSON-safe view of everything the hub holds."""
        wall = self._clock()
        with self._lock:
            return {
                "now": wall,
                "uptime_s": wall - self.started_wall,
                "events_seen": self.events_seen,
                "slots": {
                    "total": self.slots_total,
                    "available": self.slots_available,
                    "utilization": (
                        (self.slots_total - (self.slots_available or 0))
                        / self.slots_total
                        if self.slots_total
                        else None
                    ),
                    "series": list(self.slot_series),
                },
                "sweep": dict(self.sweep) if self.sweep is not None else None,
                # Active alerts, in (job, detector) order.
                "alerts": [
                    dict(job.alerts[detector])
                    for _job_id, job in sorted(self.jobs.items())
                    for detector in sorted(job.alerts)
                ],
                "jobs": {job_id: job.snapshot() for job_id, job in self.jobs.items()},
            }


_EVENT_HANDLERS = {
    "job_submitted": TelemetryHub._on_job_submitted,
    "provider_evaluation": TelemetryHub._on_provider_evaluation,
    "input_added": TelemetryHub._on_input_added,
    "map_started": TelemetryHub._on_map_started,
    "map_finished": TelemetryHub._on_map_finished,
    "map_failed": TelemetryHub._on_map_failed,
    "map_retried": TelemetryHub._on_input_added,
    "scan_span": TelemetryHub._on_scan_span,
    "job_succeeded": TelemetryHub._on_job_finished,
    "job_killed": TelemetryHub._on_job_finished,
    "sweep_started": TelemetryHub._on_sweep_started,
    "sweep_point": TelemetryHub._on_sweep_point,
    "cluster_status": TelemetryHub._on_cluster_status,
    "worker_delta": TelemetryHub._on_worker_delta,
}
