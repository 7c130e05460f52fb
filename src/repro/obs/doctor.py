"""``repro doctor``: one-shot run diagnosis.

:func:`diagnose` folds a trace into the analyzer's run model, builds
the causal span graphs (:mod:`repro.obs.spans`), runs every anomaly
detector (:mod:`repro.obs.detect`), and folds paper-invariant audit
violations in as critical findings. The result renders as
byte-deterministic markdown (:func:`render_doctor`) or JSON
(:func:`doctor_json`) with the critical path laid out span by span, and
:func:`render_doctor_diff` compares two diagnoses (before/after a knob
change). ``repro doctor`` exits non-zero when findings exist, so CI can
gate on "the golden trace diagnoses clean".

The live counterpart runs in the telemetry hub
(:mod:`repro.obs.hub`): four of the same detectors, re-checked on each
event of a running job, whose alerts the Prometheus exporter and
``repro top`` show. Like everything else in :mod:`repro.obs`, the
doctor is strictly read-side: it never mutates events and consumes no
randomness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.obs.analyze import RunModel, analyze_trace
from repro.obs.audit import AuditReport, audit_model
from repro.obs.detect import Finding, run_detectors
from repro.obs.spans import SpanGraph, build_graphs

#: Bumped when the JSON report shape changes.
DOCTOR_SCHEMA_VERSION = 1

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
    model = analyze_trace(events)
    graphs = build_graphs(model)
    findings = run_detectors(model, graphs)
    audit = audit_model(model)
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
