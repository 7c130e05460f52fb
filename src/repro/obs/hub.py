"""The live telemetry hub: streaming metrics while jobs run.

Every observability layer so far (trace, analyze, audit, report) is
post-hoc — you learn what a job did after it finishes. The
:class:`TelemetryHub` is the live complement: a thread-safe aggregator
that subscribes to :class:`~repro.obs.trace.TraceRecorder` event streams
as a listener (:meth:`~TelemetryHub.attach`) and folds every event into
windowed ring-buffer time series and log-bucket histograms,
multiplexed across concurrent jobs by job id. The stream is its only
input, so a hub sees exactly the runs whose recorder it is attached to.
Besides the logged events it folds the recorder's two listener-only
events (:meth:`~repro.obs.trace.TraceRecorder.publish`):

* ``cluster_status`` — the JobTracker's slot counts after each dispatch
  pass;
* ``worker_delta`` — a process map worker's cumulative progress, which
  the LocalRunner publishes as each delta arrives on the worker's pipe,
  so long-running worker scans appear in the live series *before*
  their task completes.

Maintained live series and histograms:

=====================  ==================================================
rows/s                 per-job cumulative scanned rows (ring series;
                       renderers derive per-second rates)
slot utilization       cluster-wide ``busy/total`` map slots, from
                       provider evaluations and ``cluster_status``
grab-to-grant          per-job latency from an Input Provider granting a
                       split to that split's map task starting
                       (histogram: p50/p95/p99 at any instant)
per-job progress       splits added/completed, running maps, outputs
CI half-width          accuracy jobs' interval convergence over time
=====================  ==================================================

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
from time import perf_counter

from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeries

#: Default ring-buffer capacity per series (bounded memory per job).
DEFAULT_CAPACITY = 512


class JobTelemetry:
    """Live state for one job, keyed by job id inside the hub.

    Plain attributes, mutated only under the hub lock.
    """

    def __init__(self, job_id: str, *, capacity: int = DEFAULT_CAPACITY) -> None:
        self.job_id = job_id
        self.name: str | None = None
        self.policy: str | None = None
        self.state = "running"
        self.total_splits: int | None = None
        self.sample_size: int | None = None
        self.first_seen_wall = 0.0
        self.last_event_wall = 0.0
        self.splits_added = 0
        self.splits_completed = 0
        self.running_maps = 0
        self.rows_total = 0
        self.outputs_total = 0
        self.evaluations = 0
        self.rows_series = TimeSeries(capacity)
        self.grab_to_grant = Histogram("grab_to_grant_s")
        self.ci_series = TimeSeries(capacity)
        self.ci_last: dict | None = None
        # Pending grant markers: (event_time, wall_time), one per granted
        # split, consumed by map_started (sim) or scan_span (local).
        self.pending_grants: list[tuple[float, float]] = []
        # True once a map_started was seen: that substrate's scan_span
        # events then stop consuming grants / driving counters (the
        # lifecycle events are authoritative there).
        self.uses_map_started = False
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
            "running_maps": self.running_maps,
            "evaluations": self.evaluations,
            "rows_total": self.rows_now,
            "outputs_total": self.outputs_total,
            "rows_series": self.rows_series.points(),
            "grab_to_grant": {"count": g.count, "total": g.total, **g.quantiles()},
            "ci": self.ci_last,
            "ci_series": self.ci_series.points(),
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


class TelemetryHub:
    """Aggregator of live run telemetry from the recorders it attaches to.

    Call :meth:`attach` with the run's TraceRecorder to start receiving
    its events; used as a context manager (``with TelemetryHub() as
    hub:``), the hub detaches from every recorder on exit.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        clock=perf_counter,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._capacity = capacity
        self.started_wall = clock()
        # The live watchdog: incremental anomaly detectors over the same
        # event stream (imported lazily — doctor sits above the hub in
        # the obs layering).
        from repro.obs.doctor import Watchdog

        self.watchdog = Watchdog()
        self.jobs: dict[str, JobTelemetry] = {}
        self.slot_series = TimeSeries(capacity)
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
        """Fold one trace event into the live series (thread-safe)."""
        with self._lock:
            self.events_seen += 1
            handler = _EVENT_HANDLERS.get(event["type"])
            if handler is not None:
                handler(self, event, self._clock())
            try:
                self.watchdog.on_event(event)
            except Exception:
                # A watchdog bug must never cost the hub its listener
                # slot (the recorder detaches listeners that raise).
                pass

    def _job(self, job_id: str, wall: float) -> JobTelemetry:
        job = self.jobs.get(job_id)
        if job is None:
            job = JobTelemetry(job_id, capacity=self._capacity)
            job.first_seen_wall = wall
            self.jobs[job_id] = job
        job.last_event_wall = wall
        return job

    def _on_job_submitted(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        detail = event.get("detail") or {}
        job.name = detail.get("name")
        job.total_splits = detail.get("total_splits")
        job.sample_size = detail.get("sample_size")
        initial = detail.get("splits") or 0
        if initial:
            job.splits_added += initial

    def _on_provider_evaluation(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        job.policy = event.get("policy")
        response = event.get("response") or {}
        if event.get("phase") == "evaluate":
            job.evaluations += 1
        splits = response.get("splits") or 0
        if splits and response.get("kind") == "INPUT_AVAILABLE":
            if event.get("phase") != "initial":
                # Initial grants were already counted by job_submitted.
                job.splits_added += splits
            for _ in range(splits):
                job.pending_grants.append((event["time"], wall))
        elif splits and event.get("phase") == "initial":
            # Initial grab that already ends the input (small jobs).
            for _ in range(splits):
                job.pending_grants.append((event["time"], wall))
        ci = response.get("ci")
        if isinstance(ci, dict):
            job.ci_last = ci
            half = ci.get("half_width")
            if half is not None:
                job.ci_series.append(wall, float(half))
        cluster = event.get("cluster")
        if isinstance(cluster, dict):
            self._on_cluster_status(cluster, wall)

    def _on_input_added(self, event: dict, wall: float) -> None:
        # splits_added is driven by provider grants (both substrates emit
        # them); input_added only keeps the job's last-activity stamp.
        self._job(event["job_id"], wall)

    def _on_map_started(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        job.uses_map_started = True
        job.running_maps += 1
        self._consume_grant(job, event["time"], wall)

    def _consume_grant(self, job: JobTelemetry, event_time: float, wall: float) -> None:
        if not job.pending_grants:
            return  # retries and untracked grants: skip, never go negative
        granted_time, granted_wall = job.pending_grants.pop(0)
        # Prefer the substrate's own clock (simulated seconds) when it
        # carries information; the LocalRunner stamps everything 0.0.
        if event_time > granted_time or event_time > 0:
            latency = event_time - granted_time
        else:
            latency = wall - granted_wall
        job.grab_to_grant.observe(max(0.0, latency))

    def _on_map_finished(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        job.running_maps = max(0, job.running_maps - 1)
        job.splits_completed += 1
        detail = event.get("detail") or {}
        job.rows_total += detail.get("records") or 0
        job.outputs_total += detail.get("outputs") or 0
        job.rows_series.append(wall, float(job.rows_now))

    def _on_map_failed(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        job.running_maps = max(0, job.running_maps - 1)

    def _on_scan_span(self, event: dict, wall: float) -> None:
        job_id = event.get("job_id")
        if not job_id:
            return
        job = self._job(job_id, wall)
        if job.uses_map_started:
            # Simulated substrate: map_finished already drives counters.
            return
        self._consume_grant(job, event["time"], wall)
        job.splits_completed += 1
        job.rows_total += event.get("rows") or 0
        job.outputs_total += event.get("outputs") or 0
        job.worker_live.clear()
        job.rows_series.append(wall, float(job.rows_now))

    def _on_job_finished(self, event: dict, wall: float) -> None:
        job = self._job(event["job_id"], wall)
        job.state = "succeeded" if event["type"] == "job_succeeded" else "killed"
        job.pending_grants.clear()
        job.worker_live.clear()
        job.rows_series.append(wall, float(job.rows_now))

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
        self.slot_series.append(wall, busy / total)

    def _on_worker_delta(self, event: dict, wall: float) -> None:
        """Fold one live worker chunk checkpoint into the job's series.

        Deltas carry *cumulative* rows per (job, partition), so folding
        is idempotent: a repeated or reordered delta never inflates
        counts (max-so-far per partition).
        """
        job = self._job(event["job_id"], wall)
        if job.state != "running":
            return
        partition = event["partition"]
        previous = job.worker_live.get(partition, 0)
        job.worker_live[partition] = max(previous, event["rows_scanned"])
        job.worker_deltas += 1
        if event["wall_s"] > 0 and event["chunk_rows"] > 0:
            job.worker_rate.observe(event["chunk_rows"] / event["wall_s"])
        job.rows_series.append(wall, float(job.rows_now))

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
                    "series": self.slot_series.points(),
                },
                "sweep": dict(self.sweep) if self.sweep is not None else None,
                "alerts": self.watchdog.alerts(),
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
