"""SLO gates: declare run-quality objectives in YAML, check in CI.

``repro slo check --spec slo.yml trace.jsonl`` evaluates a small spec
against a recorded trace (and/or a ``repro bench run`` record) and
exits non-zero when any objective is missed — the same contract as
``repro audit`` and ``repro bench compare``, so a pipeline can gate a
merge on "the nightly run still meets its latency and accuracy SLOs".

Spec shape (all sections optional; every leaf is one objective)::

    latency:                  # ceilings on per-job wall time (seconds)
      p50_s: 60.0             # nearest-rank percentile over all jobs
      p95_s: 120.0
      max_s: 300.0
      mean_s: 90.0
    throughput:
      rows_per_sec_floor: 50000     # scanned rows per wall-clock second
    stragglers:
      max_ratio: 0.05         # flagged straggler attempts / finished
    accuracy:
      ci_coverage_floor: 1.0  # accuracy jobs that met their CI target
    findings:                 # caps on `repro doctor` findings
      max_critical: 0
      max_warning: 2
      max_total: 5
    bench:                    # against a bench run record (--bench)
      floors:
        kernel.rows_per_sec: 1.0e6  # median must be >= this
      ceilings:
        e2e.seconds: 30.0           # median must be <= this

Parsing prefers PyYAML when the interpreter has it, but CI images only
carry numpy+pytest, so a built-in parser handles the subset the spec
actually needs: nested mappings with scalar leaves, ``#`` comments,
spaces for indentation. Evaluation reuses :func:`repro.obs.doctor.
diagnose`, so the straggler and findings objectives see exactly what
``repro doctor`` reports — one diagnosis, two consumers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError
from repro.obs.doctor import Diagnosis, diagnose

try:  # pragma: no cover - exercised only where PyYAML is installed
    import yaml as _yaml
except Exception:  # pragma: no cover - the CI path
    _yaml = None

#: Recognized latency keys -> percentile (None = mean).
_LATENCY_KEYS = {
    "p50_s": 50.0,
    "p90_s": 90.0,
    "p95_s": 95.0,
    "p99_s": 99.0,
    "max_s": 100.0,
    "mean_s": None,
}

_SECTIONS = ("latency", "throughput", "stragglers", "accuracy", "findings", "bench")


class SloSpecError(ReproError):
    """The SLO spec file cannot be parsed or references unknown keys."""


@dataclass(frozen=True)
class SloCheck:
    """One evaluated objective."""

    objective: str  # e.g. "latency.p95_s"
    target: float
    actual: float | None
    ok: bool
    detail: str = ""


@dataclass
class SloReport:
    """All objectives evaluated against one source."""

    source: str
    checks: list[SloCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------
def parse_slo_spec(text: str) -> dict:
    """Parse and validate a spec document into a plain nested dict."""
    if _yaml is not None:
        try:
            spec = _yaml.safe_load(text)
        except Exception as exc:
            raise SloSpecError(f"cannot parse SLO spec: {exc}") from exc
    else:
        spec = _mini_yaml(text)
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise SloSpecError(f"SLO spec must be a mapping, got {type(spec).__name__}")
    for section in spec:
        if section not in _SECTIONS:
            raise SloSpecError(
                f"unknown SLO section {section!r} (expected one of "
                f"{', '.join(_SECTIONS)})"
            )
    latency = spec.get("latency") or {}
    for key in latency:
        if key not in _LATENCY_KEYS:
            raise SloSpecError(
                f"unknown latency objective {key!r} (expected one of "
                f"{', '.join(sorted(_LATENCY_KEYS))})"
            )
    return spec


def _mini_yaml(text: str) -> dict:
    """The spec subset without PyYAML: nested maps, scalar leaves.

    Supports ``#`` comments, blank lines, and space indentation. Enough
    for every spec this module documents; anything fancier (lists,
    anchors, multi-line strings) raises.
    """
    root: dict = {}
    stack: list[tuple[int, dict]] = [(-1, root)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise SloSpecError(f"line {lineno}: indent with spaces, not tabs")
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        if body.startswith("- "):
            raise SloSpecError(f"line {lineno}: lists are not supported in SLO specs")
        key, sep, value = body.partition(":")
        if not sep:
            raise SloSpecError(f"line {lineno}: expected 'key: value', got {body!r}")
        while stack and indent <= stack[-1][0]:
            stack.pop()
        if not stack:
            raise SloSpecError(f"line {lineno}: bad indentation")
        container = stack[-1][1]
        key = key.strip().strip("'\"")
        value = value.strip()
        if not value:
            child: dict = {}
            container[key] = child
            stack.append((indent, child))
        else:
            container[key] = _scalar(value)
    return root


def _scalar(token: str):
    lowered = token.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("null", "~", "none"):
        return None
    if token[:1] in "'\"" and token[-1:] == token[:1] and len(token) >= 2:
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _target(section: dict, key: str, objective: str) -> float:
    value = section[key]
    if isinstance(value, str):
        # PyYAML follows YAML 1.1 and reads "1.0e6" (no signed
        # exponent) as a string; the documented spec shape uses that
        # form, so coerce numeric-looking strings on both parser paths.
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SloSpecError(f"{objective} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Trace evaluation
# ---------------------------------------------------------------------------
def evaluate_trace_slo(
    spec: dict,
    events: Iterable[dict],
    *,
    source: str = "trace",
    diagnosis: Diagnosis | None = None,
) -> SloReport:
    """Evaluate every trace-facing objective against one event stream."""
    if diagnosis is None:
        diagnosis = diagnose(events)
    report = SloReport(source=source)
    model = diagnosis.model

    times = sorted(
        job.response_time
        for job in model.jobs.values()
        if job.response_time is not None
    )
    latency = spec.get("latency") or {}
    for key in sorted(latency):
        objective = f"latency.{key}"
        target = _target(latency, key, objective)
        if not times:
            report.checks.append(
                SloCheck(objective, target, None, False, "no recorded wall times")
            )
            continue
        quantile = _LATENCY_KEYS[key]
        if quantile is None:
            actual = sum(times) / len(times)
        else:
            actual = _nearest_rank(times, quantile)
        report.checks.append(
            SloCheck(
                objective,
                target,
                actual,
                actual <= target,
                f"over {len(times)} job(s)",
            )
        )

    throughput = spec.get("throughput") or {}
    if "rows_per_sec_floor" in throughput:
        objective = "throughput.rows_per_sec_floor"
        target = _target(throughput, "rows_per_sec_floor", objective)
        actual, detail = _rows_per_sec(model)
        ok = actual is not None and actual >= target
        report.checks.append(SloCheck(objective, target, actual, ok, detail))

    stragglers = spec.get("stragglers") or {}
    if "max_ratio" in stragglers:
        objective = "stragglers.max_ratio"
        target = _target(stragglers, "max_ratio", objective)
        finished = sum(
            1
            for job in model.jobs.values()
            for attempt in job.attempts.values()
            if attempt.outcome == "finished"
        )
        flagged = {
            ref
            for finding in diagnosis.findings
            if finding.detector == "straggler"
            for ref in finding.evidence
            if ref.startswith("attempt:")
        }
        if finished:
            actual = len(flagged) / finished
            detail = f"{len(flagged)} of {finished} finished attempts"
        else:
            actual, detail = 0.0, "no finished attempts recorded"
        report.checks.append(
            SloCheck(objective, target, actual, actual <= target, detail)
        )

    accuracy = spec.get("accuracy") or {}
    if "ci_coverage_floor" in accuracy:
        objective = "accuracy.ci_coverage_floor"
        target = _target(accuracy, "ci_coverage_floor", objective)
        accuracy_jobs = [
            job
            for job in model.jobs.values()
            if job.error_bounded
        ]
        if accuracy_jobs:
            met = sum(
                1
                for job in accuracy_jobs
                if any(
                    (e.response_ci or {}).get("met")
                    for e in job.evaluations
                    if e.response_ci is not None
                )
            )
            actual = met / len(accuracy_jobs)
            ok = actual >= target
            detail = f"{met} of {len(accuracy_jobs)} accuracy job(s) met their CI"
        else:
            actual, ok, detail = None, True, "no accuracy jobs in trace"
        report.checks.append(SloCheck(objective, target, actual, ok, detail))

    findings = spec.get("findings") or {}
    caps = {
        "max_critical": ("critical",),
        "max_warning": ("warning",),
        "max_total": ("critical", "warning", "info"),
    }
    for key in sorted(findings):
        if key not in caps:
            raise SloSpecError(f"unknown findings objective {key!r}")
        objective = f"findings.{key}"
        target = _target(findings, key, objective)
        count = sum(
            1 for f in diagnosis.findings if f.severity in caps[key]
        )
        report.checks.append(
            SloCheck(objective, target, float(count), count <= target, "")
        )
    return report


def _nearest_rank(ordered: list[float], quantile: float) -> float:
    rank = max(1, math.ceil(quantile / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _rows_per_sec(model) -> tuple[float | None, str]:
    """Run-level scan throughput: event-time when present, else scan
    spans' own wall-clock elapsed (LocalRunner traces)."""
    rows = sum(job.records_processed for job in model.jobs.values())
    wall = sum(
        job.response_time
        for job in model.jobs.values()
        if job.response_time
    )
    if wall > 0:
        return rows / wall, f"{rows:,} rows over {wall:.3f}s of job wall time"
    elapsed = sum(
        span.get("elapsed_s") or 0.0
        for job in model.jobs.values()
        for span in job.scan_spans
    )
    if elapsed > 0:
        return rows / elapsed, f"{rows:,} rows over {elapsed:.3f}s of scan time"
    return None, "trace records no usable time axis"


# ---------------------------------------------------------------------------
# Bench-record evaluation
# ---------------------------------------------------------------------------
def evaluate_bench_slo(spec: dict, record: dict, *, source: str = "bench") -> SloReport:
    """Evaluate ``bench.floors``/``bench.ceilings`` against a run record
    (the ``repro bench run --out`` JSON: median per metric per suite)."""
    report = SloReport(source=source)
    bench = spec.get("bench") or {}
    medians: dict[str, float] = {}
    for data in (record.get("suites") or {}).values():
        for name, metric in (data.get("metrics") or {}).items():
            medians[name] = metric.get("median")
    for kind, passes in (("floors", lambda a, t: a >= t), ("ceilings", lambda a, t: a <= t)):
        section = bench.get(kind) or {}
        for name in sorted(section):
            objective = f"bench.{kind}.{name}"
            target = _target(section, name, objective)
            actual = medians.get(name)
            if actual is None:
                report.checks.append(
                    SloCheck(
                        objective,
                        target,
                        None,
                        False,
                        f"metric {name!r} not in bench record "
                        f"(has: {', '.join(sorted(medians)) or 'none'})",
                    )
                )
                continue
            report.checks.append(
                SloCheck(objective, target, actual, passes(actual, target), "median")
            )
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_slo(reports: list[SloReport]) -> str:
    """Deterministic text summary, one line per objective."""
    lines: list[str] = []
    total = failed = 0
    for report in reports:
        lines.append(f"slo check — {report.source}")
        if not report.checks:
            lines.append("  (no objectives apply)")
        for check in report.checks:
            total += 1
            mark = "PASS" if check.ok else "FAIL"
            if not check.ok:
                failed += 1
            actual = f"{check.actual:g}" if check.actual is not None else "n/a"
            line = f"  [{mark}] {check.objective}: {actual} vs target {check.target:g}"
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
    verdict = "ok" if failed == 0 else f"{failed} objective(s) missed"
    lines.append(f"slo: {total} objective(s) checked, {verdict}")
    return "\n".join(lines) + "\n"


def slo_json(reports: list[SloReport]) -> str:
    """Machine-readable verdicts with stable key order."""
    payload = {
        "ok": all(report.ok for report in reports),
        "reports": [
            {
                "source": report.source,
                "ok": report.ok,
                "checks": [
                    {
                        "objective": check.objective,
                        "target": check.target,
                        "actual": check.actual,
                        "ok": check.ok,
                        "detail": check.detail,
                    }
                    for check in report.checks
                ],
            }
            for report in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
