"""``repro doctor``: one-shot run diagnosis plus the live watchdog.

Post-hoc half: :func:`diagnose` folds a trace into the analyzer's run
model, builds the causal span graphs (:mod:`repro.obs.spans`), runs
every anomaly detector (:mod:`repro.obs.detect`), and folds paper-
invariant audit violations in as critical findings. The result renders
as byte-deterministic markdown (:func:`render_doctor`) or JSON
(:func:`doctor_json`) with the critical path laid out span by span, and
:func:`render_doctor_diff` compares two diagnoses (before/after a knob
change). ``repro doctor`` exits non-zero when findings exist, so CI can
gate on "the golden trace diagnoses clean".

Live half: :class:`Watchdog` runs a subset of the same detectors
*incrementally*, as events stream through the telemetry hub. It keeps
tiny per-job state (completed-attempt durations, undispatched grants,
trailing CI widths, idle accounting) and maintains a set of active
alerts that clear themselves when the condition passes. The hub folds
events into its watchdog under its own lock and surfaces alerts in
:meth:`TelemetryHub.snapshot`; the Prometheus exporter turns them into
``repro_alert`` gauges and ``repro top`` shows them as a banner row.

Like everything else in :mod:`repro.obs`, both halves are strictly
read-side: they never mutate events, consume no randomness, and a run
with detectors on produces byte-identical job output to one without.
Alert timing uses the substrate's event clock, so LocalRunner traces
(all times 0.0) simply never alert — the post-hoc doctor covers them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.obs.analyze import RunModel, analyze_trace
from repro.obs.audit import AuditReport, audit_events
from repro.obs.detect import (
    CI_MIN_SHRINK,
    CI_WINDOW,
    STALL_INTERVAL_MULTIPLE,
    STARVATION_IDLE_FRACTION,
    Finding,
    run_detectors,
)
from repro.obs.spans import SpanGraph, build_graphs

#: Bumped when the JSON report shape changes.
DOCTOR_SCHEMA_VERSION = 1

#: Live straggler: a running attempt this many times the median completed
#: duration (same spirit as the post-hoc MAD rule, but computable before
#: the attempt ends).
LIVE_STRAGGLER_MULTIPLE = 3.0
LIVE_STRAGGLER_MIN_SAMPLES = 4

_SEVERITY_ORDER = {"critical": 0, "warning": 1, "info": 2}


@dataclass
class Diagnosis:
    """Everything :func:`diagnose` learned about one trace."""

    model: RunModel
    graphs: dict[str, SpanGraph]
    findings: list[Finding]
    audit: AuditReport

    @property
    def ok(self) -> bool:
        return not self.findings


def diagnose(events: Iterable[dict]) -> Diagnosis:
    """Analyze, graph, detect, and audit one event stream."""
    events = list(events)
    model = analyze_trace(events)
    graphs = build_graphs(model)
    findings = run_detectors(model, graphs)
    audit = audit_events(events)
    for violation in audit.violations:
        evidence = (f"eval:seq={violation.seq}",) if violation.seq is not None else ()
        findings.append(
            Finding(
                detector=f"audit:{violation.check}",
                severity="critical",
                job_id=violation.job_id or "(run)",
                message=violation.message,
                evidence=evidence,
                suggestion="the run broke a paper invariant; see `repro audit`",
            )
        )
    findings.sort(
        key=lambda f: (
            f.job_id,
            _SEVERITY_ORDER.get(f.severity, 9),
            f.detector,
            f.message,
        )
    )
    return Diagnosis(model=model, graphs=graphs, findings=findings, audit=audit)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_doctor(diagnosis: Diagnosis) -> str:
    """The markdown report. Pure function of the diagnosis — same trace,
    same bytes (the doctor determinism test pins this)."""
    model = diagnosis.model
    lines: list[str] = ["# repro doctor", ""]
    lines.append(f"- jobs: {len(model.jobs)}")
    lines.append(f"- events: {model.events}")
    lines.append(f"- findings: {len(diagnosis.findings)}")
    lines.append(f"- audit: {'ok' if diagnosis.audit.ok else 'VIOLATIONS'}")
    for job_id in sorted(model.jobs):
        job = model.jobs[job_id]
        graph = diagnosis.graphs.get(job_id) or SpanGraph(job_id=job_id)
        lines.append("")
        title = job_id
        if job.name:
            title += f" — {job.name}"
        descriptor = ", ".join(
            part for part in (job.policy, job.state or "open") if part
        )
        if descriptor:
            title += f" ({descriptor})"
        lines.append(f"## {title}")
        lines.append("")
        wall = job.response_time
        if wall is not None:
            lines.append(f"- wall time: {wall:.3f}s")
        lines.append(
            f"- splits: {job.splits_added} added, {job.splits_completed} "
            f"completed, {job.splits_pruned} pruned; "
            f"{len(job.attempts)} attempts ({job.failed_attempts} failed)"
        )
        outputs = (
            "map outputs (per-split group totals; matches in profile mode)"
            if job.error_bounded else "outputs"
        )
        lines.append(
            f"- records: {job.records_processed:,} scanned, "
            f"{job.map_outputs:,} {outputs}"
        )
        if graph.critical_path:
            lines.append(
                f"- critical path: {len(graph.critical_path)} spans, "
                f"{graph.critical_path_length:.3f}s"
                + (
                    f" ({100.0 * graph.critical_path_length / wall:.1f}% of wall time)"
                    if wall
                    else ""
                )
            )
            lines.append("")
            lines.append("### critical path")
            lines.append("")
            lines.append("| # | span | via | wait (s) | duration (s) |")
            lines.append("|--:|------|-----|---------:|-------------:|")
            for index, segment in enumerate(graph.critical_path):
                lines.append(
                    f"| {index} | {segment.span.label} | {segment.edge_kind} "
                    f"| {segment.wait:.3f} | {segment.span.duration:.3f} |"
                )
            lines.append("")
            lines.append(f"- completion tail after last span: {graph.tail:.3f}s")
        else:
            lines.append("- critical path: (no timed task lifecycle in trace)")
        job_findings = [f for f in diagnosis.findings if f.job_id == job_id]
        lines.append("")
        lines.append("### findings")
        lines.append("")
        if not job_findings:
            lines.append("(none)")
        for finding in job_findings:
            lines.append(
                f"- **[{finding.severity}] {finding.detector}** — {finding.message}"
            )
            if finding.evidence:
                lines.append(f"  - evidence: {', '.join(finding.evidence)}")
            if finding.suggestion:
                lines.append(f"  - suggestion: {finding.suggestion}")
    orphans = [
        f for f in diagnosis.findings if f.job_id not in model.jobs
    ]
    if orphans:
        lines.append("")
        lines.append("## run-level findings")
        lines.append("")
        for finding in orphans:
            lines.append(
                f"- **[{finding.severity}] {finding.detector}** — {finding.message}"
            )
    return "\n".join(lines) + "\n"


def doctor_json(diagnosis: Diagnosis) -> str:
    """Machine-readable report: stable key order, trailing newline."""
    model = diagnosis.model
    jobs: dict[str, dict] = {}
    for job_id in sorted(model.jobs):
        job = model.jobs[job_id]
        graph = diagnosis.graphs.get(job_id) or SpanGraph(job_id=job_id)
        jobs[job_id] = {
            "name": job.name,
            "policy": job.policy,
            "state": job.state,
            "wall_time_s": job.response_time,
            "splits_added": job.splits_added,
            "splits_completed": job.splits_completed,
            "splits_pruned": job.splits_pruned,
            "failed_attempts": job.failed_attempts,
            "records_processed": job.records_processed,
            "outputs": job.map_outputs,
            "critical_path_s": (
                graph.critical_path_length if graph.critical_path else None
            ),
            "critical_path_tail_s": graph.tail if graph.critical_path else None,
            "critical_path": [
                {
                    "span_id": segment.span.span_id,
                    "kind": segment.span.kind,
                    "label": segment.span.label,
                    "start": segment.span.start,
                    "end": segment.span.end,
                    "wait_s": segment.wait,
                    "duration_s": segment.span.duration,
                    "via": segment.edge_kind,
                }
                for segment in graph.critical_path
            ],
        }
    by_severity: dict[str, int] = {}
    by_detector: dict[str, int] = {}
    for finding in diagnosis.findings:
        by_severity[finding.severity] = by_severity.get(finding.severity, 0) + 1
        by_detector[finding.detector] = by_detector.get(finding.detector, 0) + 1
    payload = {
        "schema": DOCTOR_SCHEMA_VERSION,
        "summary": {
            "jobs": len(model.jobs),
            "events": model.events,
            "findings": len(diagnosis.findings),
            "audit_ok": diagnosis.audit.ok,
            "by_severity": by_severity,
            "by_detector": by_detector,
        },
        "jobs": jobs,
        "findings": [finding.as_dict() for finding in diagnosis.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_doctor_diff(
    first: Diagnosis, second: Diagnosis, *, names: tuple[str, str] = ("A", "B")
) -> str:
    """Compare two diagnoses: findings that appeared/disappeared and how
    each job's wall time and critical path moved."""
    label_a, label_b = names
    keys_a = {(f.job_id, f.detector) for f in first.findings}
    keys_b = {(f.job_id, f.detector) for f in second.findings}
    lines = ["# repro doctor diff", ""]
    lines.append(f"- {label_a}: {len(first.findings)} findings")
    lines.append(f"- {label_b}: {len(second.findings)} findings")
    lines.append("")
    lines.append("## findings")
    lines.append("")
    only_b = [f for f in second.findings if (f.job_id, f.detector) not in keys_a]
    only_a = [f for f in first.findings if (f.job_id, f.detector) not in keys_b]
    if not only_a and not only_b:
        lines.append("(no finding appeared or disappeared)")
    for finding in only_b:
        lines.append(
            f"- new in {label_b}: **[{finding.severity}] {finding.detector}** "
            f"({finding.job_id}) — {finding.message}"
        )
    for finding in only_a:
        lines.append(
            f"- resolved in {label_b}: **[{finding.severity}] "
            f"{finding.detector}** ({finding.job_id}) — {finding.message}"
        )
    lines.append("")
    lines.append("## wall time")
    lines.append("")
    lines.append(f"| job | {label_a} (s) | {label_b} (s) | delta |")
    lines.append("|-----|----:|----:|------:|")
    pairs = _pair_jobs(first.model, second.model)
    for display, job_a, job_b in pairs:
        time_a = job_a.response_time if job_a else None
        time_b = job_b.response_time if job_b else None
        cell_a = f"{time_a:.3f}" if time_a is not None else "-"
        cell_b = f"{time_b:.3f}" if time_b is not None else "-"
        if time_a is not None and time_b is not None:
            delta = f"{time_b - time_a:+.3f}"
        else:
            delta = "-"
        lines.append(f"| {display} | {cell_a} | {cell_b} | {delta} |")
    return "\n".join(lines) + "\n"


def _pair_jobs(model_a: RunModel, model_b: RunModel):
    """Match jobs across traces by name when unique, else by position."""

    def keyed(model: RunModel) -> dict[str, object]:
        names = [job.name for job in model.jobs.values()]
        out = {}
        for job_id, job in model.jobs.items():
            key = job.name if job.name and names.count(job.name) == 1 else job_id
            out[key] = job
        return out

    jobs_a, jobs_b = keyed(model_a), keyed(model_b)
    pairs = []
    for key in sorted(set(jobs_a) | set(jobs_b)):
        pairs.append((key, jobs_a.get(key), jobs_b.get(key)))
    return pairs


# ---------------------------------------------------------------------------
# Live watchdog
# ---------------------------------------------------------------------------
class _WatchdogJob:
    """Incremental per-job state, small enough to update per event."""

    __slots__ = (
        "job_id",
        "state",
        "durations",
        "running",
        "interval",
        "last_grant_time",
        "undispatched",
        "ci_widths",
        "ci_met",
        "idle_since",
        "busy_s",
        "idle_s",
        "saw_map",
    )

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.state = "running"
        self.durations: list[float] = []  # completed attempt durations
        self.running: dict[str, float] = {}  # task_id -> start time
        self.interval: float | None = None
        self.last_grant_time: float | None = None
        self.undispatched = 0
        self.ci_widths: list[float] = []
        self.ci_met = False
        self.idle_since: float | None = None
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.saw_map = False


class Watchdog:
    """The doctor's detectors, run incrementally over a live event stream.

    Call :meth:`on_event` with every trace event (the hub does this
    under its own lock); read :meth:`alerts` at any point. Alerts are
    keyed by ``(job_id, detector)``, carry the event time they first
    fired, and clear themselves when the condition passes or the job
    finishes. All timing uses the substrate's event clock, so the
    LocalRunner's all-zero timestamps never alert (by design — its runs
    finish in milliseconds and the post-hoc doctor covers them).
    """

    def __init__(self) -> None:
        self._jobs: dict[str, _WatchdogJob] = {}
        self._alerts: dict[tuple[str, str], dict] = {}

    # -- ingestion -----------------------------------------------------
    def on_event(self, event: dict) -> None:
        type_ = event.get("type")
        job_id = event.get("job_id")
        if not job_id:
            return
        time = float(event.get("time") or 0.0)
        job = self._jobs.get(job_id)
        if job is None:
            job = self._jobs[job_id] = _WatchdogJob(job_id)
        if type_ == "provider_evaluation":
            self._on_evaluation(job, event, time)
        elif type_ == "map_started":
            job.saw_map = True
            if job.undispatched > 0:
                job.undispatched -= 1
            if not job.running and job.idle_since is not None:
                job.idle_s += max(0.0, time - job.idle_since)
                job.idle_since = None
            job.running[event.get("task_id") or ""] = time
        elif type_ in ("map_finished", "map_failed"):
            start = job.running.pop(event.get("task_id") or "", None)
            if start is not None and time >= start:
                if type_ == "map_finished":
                    job.durations.append(time - start)
                job.busy_s += time - start
            if not job.running and job.state == "running":
                job.idle_since = time
        elif type_ in ("job_succeeded", "job_killed"):
            job.state = "finished"
            job.running.clear()
            job.undispatched = 0
            job.idle_since = None
            self._clear_job(job_id)
            return
        self._evaluate(job, time)

    def _on_evaluation(self, job: _WatchdogJob, event: dict, time: float) -> None:
        knobs = event.get("knobs") or {}
        try:
            job.interval = float(knobs.get("evaluation_interval"))
        except (TypeError, ValueError):
            pass
        response = event.get("response") or {}
        splits = response.get("splits") or 0
        if splits:
            job.undispatched += splits
            job.last_grant_time = time
        ci = response.get("ci")
        if isinstance(ci, dict):
            half = ci.get("half_width")
            if half is not None:
                job.ci_widths.append(float(half))
            job.ci_met = bool(ci.get("met"))

    # -- incremental detectors ----------------------------------------
    def _evaluate(self, job: _WatchdogJob, now: float) -> None:
        if job.state != "running":
            return
        self._check_straggler(job, now)
        self._check_stall(job, now)
        self._check_starvation(job, now)
        self._check_ci(job, now)

    def _check_straggler(self, job: _WatchdogJob, now: float) -> None:
        key = (job.job_id, "straggler")
        if len(job.durations) >= LIVE_STRAGGLER_MIN_SAMPLES and job.running:
            ordered = sorted(job.durations)
            median = ordered[len(ordered) // 2]
            threshold = LIVE_STRAGGLER_MULTIPLE * median
            worst_id, worst_age = None, 0.0
            for task_id, start in sorted(job.running.items()):
                age = now - start
                if age > threshold and age > worst_age:
                    worst_id, worst_age = task_id, age
            if worst_id is not None and median > 0:
                self._raise(
                    key,
                    severity="warning",
                    message=(
                        f"attempt {worst_id} running {worst_age:.1f}s vs "
                        f"median {median:.1f}s"
                    ),
                    since=now,
                )
                return
        self._clear(key)

    def _check_stall(self, job: _WatchdogJob, now: float) -> None:
        key = (job.job_id, "scheduler_stall")
        if (
            job.undispatched > 0
            and job.interval
            and job.last_grant_time is not None
            and now - job.last_grant_time > STALL_INTERVAL_MULTIPLE * job.interval
        ):
            self._raise(
                key,
                severity="critical",
                message=(
                    f"{job.undispatched} granted splits undispatched for "
                    f"{now - job.last_grant_time:.1f}s "
                    f"(EvaluationInterval {job.interval:g}s)"
                ),
                since=now,
            )
        else:
            self._clear(key)

    def _check_starvation(self, job: _WatchdogJob, now: float) -> None:
        key = (job.job_id, "slot_starvation")
        idle = job.idle_s
        if job.idle_since is not None:
            idle += max(0.0, now - job.idle_since)
        elapsed = idle + job.busy_s
        if (
            job.saw_map
            and elapsed > 0
            and job.busy_s > 0
            and idle / elapsed > STARVATION_IDLE_FRACTION
        ):
            self._raise(
                key,
                severity="warning",
                message=(
                    f"slots idle {100.0 * idle / elapsed:.0f}% of the map "
                    f"phase so far ({idle:.1f}s idle)"
                ),
                since=now,
            )
        else:
            self._clear(key)

    def _check_ci(self, job: _WatchdogJob, now: float) -> None:
        key = (job.job_id, "ci_stall")
        widths = job.ci_widths
        if not job.ci_met and len(widths) > CI_WINDOW:
            first = widths[-(CI_WINDOW + 1)]
            last = widths[-1]
            if first > 0 and (first - last) / first < CI_MIN_SHRINK:
                self._raise(
                    key,
                    severity="warning",
                    message=(
                        f"CI half-width ±{last:.4g} shrank "
                        f"{100.0 * (first - last) / first:.2f}% over the "
                        f"last {CI_WINDOW} evaluations"
                    ),
                    since=now,
                )
                return
        self._clear(key)

    # -- alert bookkeeping --------------------------------------------
    def _raise(self, key: tuple[str, str], *, severity: str, message: str, since: float) -> None:
        existing = self._alerts.get(key)
        if existing is not None:
            existing["severity"] = severity
            existing["message"] = message
            return
        self._alerts[key] = {
            "job_id": key[0],
            "detector": key[1],
            "severity": severity,
            "message": message,
            "since": since,
        }

    def _clear(self, key: tuple[str, str]) -> None:
        self._alerts.pop(key, None)

    def _clear_job(self, job_id: str) -> None:
        for key in [k for k in self._alerts if k[0] == job_id]:
            del self._alerts[key]

    def alerts(self) -> list[dict]:
        """Active alerts, JSON-safe, in (job, detector) order."""
        return [dict(self._alerts[key]) for key in sorted(self._alerts)]
