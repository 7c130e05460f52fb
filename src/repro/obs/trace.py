"""Structured trace export: typed JSONL events for a whole run.

:class:`TraceRecorder` extends :class:`repro.engine.history.JobHistory`
— it accepts the same ``record(time, kind, job_id, ...)`` calls the
JobTracker already makes, so it can be attached anywhere a JobHistory
can — and adds:

* typed events beyond the job lifecycle: every Input Provider
  evaluation with its full inputs (``JobProgress``, ``ClusterStatus``,
  policy knobs) and response, per-split scan-engine spans, metrics
  snapshots, and sweep progress;
* JSONL export (one event per line) with a versioned schema, validated
  by :func:`validate_trace_event` and checked in CI against a golden
  trace file.

Event wire format — every line is a JSON object with::

    v      trace schema version (int)
    seq    monotonically increasing per-recorder sequence number
    time   simulated seconds (sim substrate) or 0.0 (LocalRunner)
    type   event type (see EVENT_FIELDS)

plus the per-type fields listed in :data:`EVENT_FIELDS`. Lifecycle
events mirror JobHistory kinds one-to-one; their free-form ``detail``
dict rides along unflattened so the schema stays stable as engines add
annotations.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import IO, Any, Iterable

from repro.engine.history import JobHistory
from repro.errors import ReproError

TRACE_SCHEMA_VERSION = 1

#: JobHistory lifecycle kinds mirrored one-to-one as trace event types.
LIFECYCLE_EVENT_TYPES = (
    "job_submitted",
    "job_activated",
    "input_added",
    "input_complete",
    "map_started",
    "map_finished",
    "map_failed",
    "map_retried",
    "reduce_started",
    "reduce_finished",
    "job_succeeded",
    "job_killed",
)

#: Required fields per event type, beyond the common v/seq/time/type.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    **{kind: ("job_id",) for kind in LIFECYCLE_EVENT_TYPES},
    "provider_evaluation": (
        "job_id",
        "phase",
        "policy",
        "progress",
        "cluster",
        "response",
    ),
    "scan_span": ("task_id", "split_id", "mode", "rows", "outputs", "elapsed_s"),
    "metrics_snapshot": ("scope", "metrics"),
    "sweep_started": ("points",),
    "sweep_point": ("index", "kind", "params", "cached"),
    "sweep_finished": ("points",),
}


class TraceSchemaError(ReproError):
    """A trace event (or JSONL line) does not match the schema."""


def policy_knobs(policy) -> dict:
    """The policy parameters carried on every provider_evaluation event."""
    return {
        "work_threshold_pct": policy.work_threshold_pct,
        "grab_limit": policy.grab_limit.source,
        "evaluation_interval": policy.evaluation_interval,
    }


def record_provider_evaluation(trace, time: float, provider, **event) -> None:
    """Emit one ``provider_evaluation`` event for an Input Provider call.

    The one place both substrates trace a provider invocation (a no-op
    without a recorder): the policy, its knobs, the pruned count and the
    interval snapshot come from the provider; ``event`` carries the rest
    of :meth:`TraceRecorder.provider_evaluation`'s fields.

    The ``grab_limit`` knob is the limit the grant was held to
    (:meth:`~repro.core.input_provider.InputProvider.grab_source`), so
    the audit replays the cap that applied: a ladder rung under
    ``adaptive``, ``infinity`` under ``static``. The policy name and the
    cadence knobs stay the job's own.
    """
    if trace is not None:
        knobs = policy_knobs(provider.policy)
        knobs["grab_limit"] = provider.grab_source(event["cluster"])
        trace.provider_evaluation(
            time, policy=provider.policy.name, knobs=knobs,
            pruned=provider.splits_pruned, ci=provider.ci_state, **event,
        )


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-safe structures."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class TraceRecorder(JobHistory):
    """JobHistory that also emits every event as a typed JSONL record.

    ``path`` (or an open ``stream``) receives one JSON line per event as
    it happens; either way the raw event dicts stay available on
    :attr:`raw_events` for in-process rendering and tests. The recorder
    is a context manager; :meth:`close` flushes and closes an owned file.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        stream: IO[str] | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(capacity=capacity)
        self.raw_events: list[dict] = []
        self._seq = 0
        self._listeners: list = []
        self._stream = stream
        self._owns_stream = False
        if path is not None:
            if stream is not None:
                raise ValueError("pass either path or stream, not both")
            self._stream = open(path, "w", encoding="utf-8")
            self._owns_stream = True

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def emit(self, type_: str, time: float, **fields) -> dict:
        """Append one typed event; returns the event dict."""
        event = {
            "v": TRACE_SCHEMA_VERSION,
            "seq": self._seq,
            "time": time,
            "type": type_,
        }
        self._seq += 1
        for key, value in fields.items():
            event[key] = _jsonable(value)
        self.raw_events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event, sort_keys=False) + "\n")
        if self._listeners:
            self._notify(event)
        return event

    def _notify(self, event: dict) -> None:
        """Fan the event out to listeners, isolating their failures.

        Listeners are read-side observers (progress lines, the telemetry
        hub); a bug in one must never kill the observed job. A listener
        that raises is detached after a single stderr notice — letting it
        keep raising would both spam and keep re-entering broken code on
        the job's hot path.
        """
        broken: list = []
        for listener in self._listeners:
            try:
                listener(event)
            except Exception as exc:
                broken.append(listener)
                print(
                    f"repro: trace listener {listener!r} raised "
                    f"{type(exc).__name__}: {exc}; detaching it",
                    file=sys.stderr,
                )
        for listener in broken:
            self._listeners.remove(listener)

    def add_listener(self, listener) -> None:
        """Register a callable invoked with every emitted event dict.

        Listeners are strictly read-side consumers (live progress
        reporting); they must not mutate the event. A listener that
        raises is detached (with one stderr notice) instead of
        propagating into — and killing — the traced job.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Detach a listener added with :meth:`add_listener` (idempotent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # JobHistory contract — lifecycle events from the JobTracker
    # ------------------------------------------------------------------
    def record(
        self,
        time: float,
        kind: str,
        job_id: str,
        *,
        task_id: str | None = None,
        **detail,
    ) -> None:
        fields: dict[str, Any] = {"job_id": job_id}
        if task_id is not None:
            fields["task_id"] = task_id
        if detail:
            fields["detail"] = detail
        self.emit(kind, time, **fields)
        super().record(time, kind, job_id, task_id=task_id, **detail)

    # ------------------------------------------------------------------
    # Typed events beyond the lifecycle
    # ------------------------------------------------------------------
    def provider_evaluation(
        self,
        time: float,
        *,
        job_id: str,
        phase: str,
        policy: str | None,
        knobs: dict | None,
        progress,
        cluster,
        response_kind: str,
        splits: int,
        pruned: int = 0,
        ci: dict | None = None,
    ) -> None:
        """One Input Provider invocation (paper §III-A evaluation loop).

        ``phase`` is ``"initial"`` for ``initial_input`` (where the
        provider sees only cluster state, so ``progress`` is None) or
        ``"evaluate"`` for the periodic loop. ``pruned`` is the
        provider's *cumulative* count of splits retired via split
        statistics without dispatch; the audit folds it into the
        splits-accounting invariant. Older traces (and providers without
        statistics) simply omit/zero it. ``ci`` is the accuracy
        provider's interval snapshot (estimate, half_width, n, met);
        attached only when the provider exposes one, so traces from
        other providers are byte-identical to before.
        """
        response: dict[str, Any] = {
            "kind": response_kind,
            "splits": splits,
            "pruned": pruned,
        }
        if ci is not None:
            response["ci"] = ci
        self.emit(
            "provider_evaluation",
            time,
            job_id=job_id,
            phase=phase,
            policy=policy,
            knobs=knobs,
            progress=progress,
            cluster=cluster,
            response=response,
        )

    def scan_span(
        self,
        time: float,
        *,
        task_id: str,
        split_id: str,
        mode: str,
        batch_size: int,
        rows: int,
        outputs: int,
        elapsed_s: float,
        job_id: str | None = None,
    ) -> None:
        """One map-task scan execution (wall-clock timed)."""
        rows_per_sec = rows / elapsed_s if elapsed_s > 0 else None
        self.emit(
            "scan_span",
            time,
            job_id=job_id,
            task_id=task_id,
            split_id=split_id,
            mode=mode,
            batch_size=batch_size,
            rows=rows,
            outputs=outputs,
            elapsed_s=elapsed_s,
            rows_per_sec=rows_per_sec,
        )

    def metrics_snapshot(
        self, time: float, *, scope: str, metrics: dict, job_id: str | None = None
    ) -> None:
        """A registry ``snapshot()`` at a point in time (job end, run end)."""
        self.emit(
            "metrics_snapshot", time, scope=scope, job_id=job_id, metrics=metrics
        )

    def sweep_started(self, *, points: int, jobs: int) -> None:
        self.emit("sweep_started", 0.0, points=points, jobs=jobs)

    def sweep_point(
        self, *, index: int, kind: str, params: dict, cached: bool
    ) -> None:
        self.emit("sweep_point", 0.0, index=index, kind=kind, params=params, cached=cached)

    def sweep_finished(self, *, points: int) -> None:
        self.emit("sweep_finished", 0.0, points=points)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
            self._stream = None
            self._owns_stream = False

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Schema validation / loading
# ----------------------------------------------------------------------
def validate_trace_event(event: Any) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` matches the schema."""
    if not isinstance(event, dict):
        raise TraceSchemaError(f"trace event must be an object, got {type(event).__name__}")
    for field in ("v", "seq", "time", "type"):
        if field not in event:
            raise TraceSchemaError(f"trace event missing required field {field!r}")
    if event["v"] != TRACE_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema version {event['v']!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        raise TraceSchemaError(f"seq must be a non-negative int, got {event['seq']!r}")
    if not isinstance(event["time"], (int, float)) or isinstance(event["time"], bool):
        raise TraceSchemaError(f"time must be a number, got {event['time']!r}")
    type_ = event["type"]
    required = EVENT_FIELDS.get(type_)
    if required is None:
        raise TraceSchemaError(f"unknown trace event type {type_!r}")
    for field in required:
        if field not in event:
            raise TraceSchemaError(f"{type_} event missing required field {field!r}")
    if type_ == "provider_evaluation":
        response = event["response"]
        if not isinstance(response, dict) or "kind" not in response or "splits" not in response:
            raise TraceSchemaError(
                "provider_evaluation response must carry 'kind' and 'splits'"
            )


def validate_trace(events: Iterable[Any]) -> int:
    """Validate a sequence of events; returns how many were checked."""
    count = 0
    last_seq = -1
    for event in events:
        validate_trace_event(event)
        if event["seq"] <= last_seq:
            raise TraceSchemaError(
                f"seq not strictly increasing: {event['seq']} after {last_seq}"
            )
        last_seq = event["seq"]
        count += 1
    return count


def load_trace(path: str | Path, *, validate: bool = True) -> list[dict]:
    """Read a JSONL trace file; validates each line unless told not to."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            events.append(event)
    if validate:
        try:
            validate_trace(events)
        except TraceSchemaError as exc:
            raise TraceSchemaError(f"{path}: {exc}") from exc
    return events
