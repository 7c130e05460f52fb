"""The live telemetry hub: streaming metrics while jobs run.

Every observability layer so far (trace, analyze, audit, report) is
post-hoc — you learn what a job did after it finishes. The
:class:`TelemetryHub` is the live complement: a process-global,
thread-safe aggregator that

* subscribes to a :class:`~repro.obs.trace.TraceRecorder` as an event
  listener (:meth:`attach`) and folds every event into windowed
  ring-buffer time series and streaming quantile sketches, multiplexed
  across concurrent jobs by job id;
* receives cross-process worker deltas from the process map executor
  (:meth:`record_worker_delta`, fed by the runtime as the deltas arrive
  on the workers' pipes), so long-running worker scans appear in the
  live series *before* their task completes;
* samples registered :class:`~repro.obs.metrics.MetricsRegistry`
  instances on demand (:meth:`track_registry`), turning counter deltas
  between samples into rates.

Maintained live series and sketches:

=====================  ==================================================
rows/s                 per-job cumulative scanned rows (ring series;
                       renderers derive per-second rates)
slot utilization       cluster-wide ``busy/total`` map slots, from
                       provider evaluations and JobTracker dispatch
grab-to-grant          per-job latency from an Input Provider granting a
                       split to that split's map task starting
                       (quantile sketch: p50/p95/p99 at any instant)
per-job progress       splits added/completed, running maps, outputs
CI half-width          accuracy jobs' interval convergence over time
=====================  ==================================================

The hub is **strictly read-side**: it never mutates events, consumes no
randomness, and attaching it changes no job output bytes (the hub
parity suite asserts this across both substrates, all scan modes, and
both map executors). Consumers — ``repro top``, the Prometheus
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
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import QuantileSketch, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.proc import WorkerDelta

#: The process-global hub, or None. Hot paths read this slot directly;
#: only install/uninstall write it.
ACTIVE: "TelemetryHub | None" = None


def active_hub() -> "TelemetryHub | None":
    """The installed hub, if any."""
    return ACTIVE


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
        self.grab_to_grant = QuantileSketch("grab_to_grant_s")
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
        self.worker_rate = QuantileSketch("worker_rows_per_s")
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
    """Process-global aggregator of live run telemetry.

    Use as a context manager (``with TelemetryHub() as hub:``) or via
    :meth:`install`/:meth:`uninstall` to occupy the module's
    :data:`ACTIVE` slot that the runtime and JobTracker consult; call
    :meth:`attach` with the run's TraceRecorder to start receiving
    events.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        clock=perf_counter,
        worker_chunk_rows: int | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._capacity = capacity
        self.worker_chunk_rows = worker_chunk_rows
        """Rows per worker scan chunk (flush cadence), or None for the
        scan layer's default. Small values make workers flush often —
        useful in tests and for watching very slow scans."""
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
        self._registries: dict[str, MetricsRegistry] = {}
        self._registry_prev: dict[str, tuple[float, dict]] = {}
        self._recorders: list = []
        self._previous: "TelemetryHub | None" = None
        self._installed = False

    # ------------------------------------------------------------------
    # Installation / attachment
    # ------------------------------------------------------------------
    def install(self) -> "TelemetryHub":
        """Occupy the process-global :data:`ACTIVE` slot; returns self."""
        global ACTIVE
        if self._installed:
            return self
        self._previous = ACTIVE
        ACTIVE = self
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Release :data:`ACTIVE` and detach recorders."""
        global ACTIVE
        if self._installed:
            ACTIVE = self._previous
            self._previous = None
            self._installed = False
        for recorder in self._recorders:
            recorder.remove_listener(self.on_event)
        self._recorders.clear()

    def __enter__(self) -> "TelemetryHub":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def attach(self, recorder) -> "TelemetryHub":
        """Subscribe to a TraceRecorder's event stream; returns self."""
        recorder.add_listener(self.on_event)
        self._recorders.append(recorder)
        return self

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
            self._observe_cluster_locked(cluster, wall)

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

    # ------------------------------------------------------------------
    # Cluster status (JobTracker hook + provider evaluations)
    # ------------------------------------------------------------------
    def observe_cluster(self, status) -> None:
        """Record live slot availability (called after dispatch passes).

        ``status`` is a :class:`~repro.engine.job.ClusterStatus` (or any
        object with ``total_map_slots`` / ``available_map_slots``).
        """
        with self._lock:
            self._observe_cluster_locked(
                {
                    "total_map_slots": status.total_map_slots,
                    "available_map_slots": status.available_map_slots,
                },
                self._clock(),
            )

    def _observe_cluster_locked(self, cluster: dict, wall: float) -> None:
        total = cluster.get("total_map_slots")
        available = cluster.get("available_map_slots")
        if not total:
            return
        self.slots_total = total
        self.slots_available = available
        busy = total - (available or 0)
        self.slot_series.append(wall, busy / total)

    # ------------------------------------------------------------------
    # Cross-process worker telemetry
    # ------------------------------------------------------------------
    def record_worker_delta(self, delta: "WorkerDelta") -> None:
        """Fold one live worker chunk checkpoint into the job's series.

        Deltas carry *cumulative* rows per (job, partition), so folding
        is idempotent: a repeated or reordered delta never inflates
        counts (max-so-far per partition).
        """
        job_id = delta.job_id
        if not job_id:
            return
        wall = self._clock()
        with self._lock:
            job = self._job(job_id, wall)
            if job.state != "running":
                return
            previous = job.worker_live.get(delta.partition, 0)
            job.worker_live[delta.partition] = max(previous, delta.rows_scanned)
            job.worker_deltas += 1
            if delta.wall_s > 0 and delta.chunk_rows > 0:
                job.worker_rate.observe(delta.chunk_rows / delta.wall_s)
            job.rows_series.append(wall, float(job.rows_now))

    # ------------------------------------------------------------------
    # Registry deltas
    # ------------------------------------------------------------------
    def track_registry(self, name: str, registry: MetricsRegistry) -> None:
        """Sample ``registry`` on every :meth:`snapshot`, exposing counter
        values plus between-sample rates."""
        with self._lock:
            self._registries[name] = registry

    def _sample_registries_locked(self, wall: float) -> dict:
        sampled: dict[str, dict] = {}
        for name, registry in self._registries.items():
            snap = registry.snapshot()
            prev_wall, prev_snap = self._registry_prev.get(name, (wall, {}))
            dt = wall - prev_wall
            entries: dict[str, dict] = {}
            for metric, entry in snap.items():
                value = entry["value"]
                out = {"kind": entry["kind"], "value": value}
                if entry["kind"] == "counter" and dt > 0:
                    prev_entry = prev_snap.get(metric)
                    prev_value = prev_entry["value"] if prev_entry else 0
                    out["rate"] = max(0.0, (value - prev_value) / dt)
                entries[metric] = out
            sampled[name] = entries
            self._registry_prev[name] = (wall, snap)
        return sampled

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
                "registries": self._sample_registries_locked(wall),
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
}
