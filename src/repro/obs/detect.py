"""Deterministic anomaly detectors over the causal span graph.

Each detector is a pure function ``(job: JobModel, graph: SpanGraph)
-> list[Finding]`` registered under a stable name. Detectors look for
the failure modes the paper's §V experiments (and the related work in
PAPERS.md) identify as the reasons a predicate-sampling run misses its
latency target:

=====================  ==================================================
straggler              attempt duration far above its wave's median
                       (MAD-scaled, so one slow disk doesn't hide twins)
slot_starvation        map slots idle between waves — the WorkThreshold
                       held grants back longer than the cluster needed
scheduler_stall        a wave's first dispatch lagged its grant by more
                       than the EvaluationInterval budget
split_skew             one split carries far more rows than its peers
                       ("Assignment Problems of Different-Sized Inputs")
selectivity_drift      the predicate's hit rate shifted mid-job, so
                       early-wave grab sizing no longer fits (LA §IV-B)
pruning_regression     a statistics-mode run still scanned splits that
                       produced nothing — zone maps/blooms missed them
ci_stall               a WITHIN…ERROR job's interval stopped shrinking
                       (EARL-style estimator convergence watch)
=====================  ==================================================

Thresholds are deliberately conservative and MAD-based: the golden
trace — a clean, deterministic simulated run with seeded retries — must
yield **zero** findings (a CI gate), while each class has a seeded
mutant trace that must trip exactly its detector. Detectors never
mutate the model and consume no randomness: the same trace always
produces byte-identical findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.analyze import JobModel, RunModel
from repro.obs.spans import SpanGraph, build_graphs

#: Consistency constant: 1 MAD ≈ 1.4826 σ for normal data.
MAD_SCALE = 1.4826

#: Straggler: flag attempts beyond median + max(K·scaled-MAD, RELATIVE·median).
STRAGGLER_MAD_K = 5.0
STRAGGLER_RELATIVE_FLOOR = 0.5
#: Minimum finished attempts in a wave before judging stragglers.
STRAGGLER_MIN_ATTEMPTS = 4

#: Starvation: idle fraction of the map phase (no attempt running) above
#: this, across at least MIN_GAPS distinct gaps, is a mis-tuned threshold.
STARVATION_IDLE_FRACTION = 0.30
STARVATION_MIN_GAPS = 3

#: Stall: a wave's first dispatch more than this many EvaluationIntervals
#: after its grant, and stretched vs the job's own median dispatch gap.
STALL_INTERVAL_MULTIPLE = 2.0
STALL_MEDIAN_MULTIPLE = 2.0

#: Skew: largest split above max(2·median, median + K·scaled-MAD) rows.
SKEW_RATIO = 2.0
SKEW_MAD_K = 5.0
SKEW_MIN_SPLITS = 4

#: Drift: late-run selectivity vs early-run outside [1/RATIO, RATIO].
DRIFT_RATIO = 4.0
DRIFT_MIN_WAVES = 4

#: Pruning regression: zero-output fraction of scanned splits in a
#: stats-mode run (pruned > 0 proves statistics were consulted).
PRUNING_ZERO_FRACTION = 0.25
PRUNING_MIN_ZERO = 2

#: CI stall: over the trailing WINDOW ci-carrying evaluations, the half
#: width must shrink by at least MIN_SHRINK (relative) unless met.
CI_WINDOW = 4
CI_MIN_SHRINK = 0.01


@dataclass(frozen=True)
class Finding:
    """One typed diagnosis: what, how bad, where, and what to turn."""

    detector: str
    severity: str  # "info" | "warning" | "critical"
    job_id: str
    message: str
    evidence: tuple[str, ...] = ()
    """Span ids (``attempt:…``, ``grant:…``) or ``eval:seq=…`` refs."""
    suggestion: str | None = None

    def as_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "job_id": self.job_id,
            "message": self.message,
            "evidence": list(self.evidence),
            "suggestion": self.suggestion,
        }


Detector = Callable[[JobModel, SpanGraph], list]

#: Registry, name -> detector. Iterated in sorted-name order.
DETECTORS: dict[str, Detector] = {}


def detector(name: str) -> Callable[[Detector], Detector]:
    def register(fn: Detector) -> Detector:
        DETECTORS[name] = fn
        return fn

    return register


def run_detectors(
    model: RunModel,
    graphs: dict[str, SpanGraph] | None = None,
    *,
    names: tuple[str, ...] | None = None,
) -> list[Finding]:
    """Run every (selected) detector over every job, deterministically.

    Jobs iterate in sorted id order, detectors in sorted name order;
    the same trace therefore always yields the same finding list.
    """
    if graphs is None:
        graphs = build_graphs(model)
    selected = sorted(names) if names is not None else sorted(DETECTORS)
    findings: list[Finding] = []
    for job_id in sorted(model.jobs):
        job = model.jobs[job_id]
        graph = graphs.get(job_id) or SpanGraph(job_id=job_id)
        for name in selected:
            findings.extend(DETECTORS[name](job, graph))
    return findings


# ---------------------------------------------------------------------------
# Shared statistics helpers
# ---------------------------------------------------------------------------
def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: list[float], center: float) -> float:
    return _median([abs(v - center) for v in values])


def _finished_attempts(job: JobModel) -> list:
    return [
        job.attempts[task_id]
        for task_id in job.attempt_order
        if job.attempts[task_id].outcome == "finished"
        and job.attempts[task_id].duration is not None
    ]


def _knob(job: JobModel, name: str) -> float | None:
    knobs = job.knobs or {}
    value = knobs.get(name)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------
@detector("straggler")
def detect_stragglers(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """Attempts far slower than their wave's median duration."""
    findings: list[Finding] = []
    by_wave: dict[int, list] = {}
    for attempt in _finished_attempts(job):
        wave = graph.attempt_waves.get(attempt.task_id)
        if wave is not None:
            by_wave.setdefault(wave, []).append(attempt)
    for wave in sorted(by_wave):
        attempts = by_wave[wave]
        if len(attempts) < STRAGGLER_MIN_ATTEMPTS:
            continue
        durations = [a.duration for a in attempts]
        median = _median(durations)
        if median <= 0:
            continue
        spread = MAD_SCALE * _mad(durations, median)
        threshold = median + max(
            STRAGGLER_MAD_K * spread, STRAGGLER_RELATIVE_FLOOR * median
        )
        for attempt in attempts:
            if attempt.duration <= threshold:
                continue
            on_path = any(
                seg.span.span_id == f"attempt:{attempt.task_id}"
                for seg in graph.critical_path
            )
            findings.append(
                Finding(
                    detector="straggler",
                    severity="critical" if on_path else "warning",
                    job_id=job.job_id,
                    message=(
                        f"straggler attempt {attempt.task_id} in wave {wave}: "
                        f"{attempt.duration:.3f}s vs wave median {median:.3f}s"
                        + (" (on the critical path)" if on_path else "")
                    ),
                    evidence=(f"attempt:{attempt.task_id}", f"grant:{wave}"),
                    suggestion=(
                        "enable speculative re-execution or shrink split "
                        "size so one slow node cannot hold the wave"
                    ),
                )
            )
    return findings


@detector("slot_starvation")
def detect_slot_starvation(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """Map slots idle between waves: the WorkThreshold over-delayed grants."""
    series = job.utilization()
    if len(series) < 2:
        return []
    start, end = series[0][0], series[-1][0]
    span = end - start
    if span <= 0:
        return []
    idle = 0.0
    gaps = 0
    for (t0, running), (t1, _next) in zip(series, series[1:]):
        if running == 0 and t1 > t0:
            idle += t1 - t0
            gaps += 1
    fraction = idle / span
    if fraction <= STARVATION_IDLE_FRACTION or gaps < STARVATION_MIN_GAPS:
        return []
    threshold = _knob(job, "work_threshold_pct")
    suggestion = "lower WorkThreshold so the provider grants the next wave sooner"
    if threshold is not None:
        suggestion = (
            f"WorkThreshold too high ({threshold:g}%): lower it so the "
            "provider grants the next wave before the cluster drains"
        )
    return [
        Finding(
            detector="slot_starvation",
            severity="warning",
            job_id=job.job_id,
            message=(
                f"WorkThreshold too high: {fraction * 100.0:.0f}% slot idle "
                f"between waves ({idle:.1f}s of {span:.1f}s map phase across "
                f"{gaps} gaps)"
            ),
            evidence=tuple(f"grant:{wave.index}" for wave in job.waves),
            suggestion=suggestion,
        )
    ]


@detector("scheduler_stall")
def detect_scheduler_stalls(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """Dispatch gaps: a granted wave sat undispatched past its interval."""
    interval = _knob(job, "evaluation_interval")
    if interval is None or interval <= 0:
        return []
    first_start: dict[int, float] = {}
    for attempt in job.attempts.values():
        if attempt.start is None:
            continue
        wave = graph.attempt_waves.get(attempt.task_id)
        if wave is None:
            continue
        if wave not in first_start or attempt.start < first_start[wave]:
            first_start[wave] = attempt.start
    gaps: list[tuple[int, float]] = []
    for wave in job.waves:
        if wave.index not in first_start:
            continue
        ready = wave.time
        if job.activate_time is not None:
            ready = max(ready, job.activate_time)
        gaps.append((wave.index, first_start[wave.index] - ready))
    if not gaps:
        return []
    median_gap = _median([gap for _w, gap in gaps])
    findings: list[Finding] = []
    for wave_index, gap in gaps:
        if gap <= STALL_INTERVAL_MULTIPLE * interval:
            continue
        if gap <= STALL_MEDIAN_MULTIPLE * median_gap:
            continue
        findings.append(
            Finding(
                detector="scheduler_stall",
                severity="critical",
                job_id=job.job_id,
                message=(
                    f"scheduler stall: wave {wave_index} waited {gap:.1f}s "
                    f"from grant to first dispatch "
                    f"(EvaluationInterval {interval:g}s, median gap "
                    f"{median_gap:.1f}s)"
                ),
                evidence=(f"grant:{wave_index}",),
                suggestion=(
                    "check JobTracker heartbeat pressure; dispatch should "
                    "follow a grant within one EvaluationInterval"
                ),
            )
        )
    return findings


@detector("split_skew")
def detect_split_skew(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """One split much larger than its peers (different-sized inputs)."""
    sized: list[tuple[str, float]] = [
        (f"attempt:{a.task_id}", float(a.records))
        for a in _finished_attempts(job)
        if a.records > 0
    ]
    if not sized:
        sized = [
            (f"scan:{span['split_id']}", float(span["rows"]))
            for span in job.scan_spans
            if span.get("rows")
        ]
    if len(sized) < SKEW_MIN_SPLITS:
        return []
    rows = [r for _ref, r in sized]
    median = _median(rows)
    if median <= 0:
        return []
    spread = MAD_SCALE * _mad(rows, median)
    threshold = max(SKEW_RATIO * median, median + SKEW_MAD_K * spread)
    ref, largest = max(sized, key=lambda item: (item[1], item[0]))
    if largest <= threshold:
        return []
    return [
        Finding(
            detector="split_skew",
            severity="warning",
            job_id=job.job_id,
            message=(
                f"split-size skew: largest split scanned {largest:,.0f} rows "
                f"vs median {median:,.0f} ({largest / median:.1f}x)"
            ),
            evidence=(ref,),
            suggestion=(
                "rebalance the input layout (equal-row splits) or enable "
                "size-aware assignment so big splits start first"
            ),
        )
    ]


@detector("selectivity_drift")
def detect_selectivity_drift(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """The predicate hit rate moved between early and late waves."""
    if job.error_bounded:
        return []  # Outputs are group totals; outputs / records is no hit rate.
    per_wave: dict[int, tuple[int, int]] = {}
    for attempt in _finished_attempts(job):
        wave = graph.attempt_waves.get(attempt.task_id)
        if wave is None or attempt.records <= 0:
            continue
        records, outputs = per_wave.get(wave, (0, 0))
        per_wave[wave] = (records + attempt.records, outputs + attempt.outputs)
    waves = sorted(per_wave)
    if len(waves) < DRIFT_MIN_WAVES:
        return []
    selectivity = {
        w: per_wave[w][1] / per_wave[w][0] for w in waves if per_wave[w][0] > 0
    }
    waves = [w for w in waves if w in selectivity]
    if len(waves) < DRIFT_MIN_WAVES:
        return []
    half = len(waves) // 2
    early = sum(selectivity[w] for w in waves[:half]) / half
    late = sum(selectivity[w] for w in waves[half:]) / (len(waves) - half)
    if early <= 0:
        return []
    ratio = late / early
    if 1.0 / DRIFT_RATIO <= ratio <= DRIFT_RATIO:
        return []
    direction = "rose" if ratio > 1 else "fell"
    return [
        Finding(
            detector="selectivity_drift",
            severity="warning",
            job_id=job.job_id,
            message=(
                f"selectivity drift: predicate hit rate {direction} from "
                f"{early:.2e} (early waves) to {late:.2e} (late waves), "
                f"ratio {ratio:.2f}"
            ),
            evidence=tuple(f"grant:{w}" for w in waves),
            suggestion=(
                "grab sizing keyed to early selectivity no longer fits; "
                "re-estimate selectivity per wave (List/adaptive policy) "
                "or widen GrabLimit for the late waves"
            ),
        )
    ]


@detector("pruning_regression")
def detect_pruning_regression(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """A stats-mode run still scanned splits that produced nothing."""
    if job.splits_pruned <= 0:
        return []  # Statistics never engaged; nothing to regress.
    scanned: list[tuple[str, int, int]] = [
        (f"attempt:{a.task_id}", a.records, a.outputs)
        for a in _finished_attempts(job)
    ]
    if not scanned:
        scanned = [
            (f"scan:{span['split_id']}", span.get("rows", 0), span.get("outputs", 0))
            for span in job.scan_spans
        ]
    if not scanned:
        return []
    zero = [(ref, rows) for ref, rows, outputs in scanned if rows > 0 and outputs == 0]
    if len(zero) < max(
        PRUNING_MIN_ZERO, int(PRUNING_ZERO_FRACTION * len(scanned))
    ):
        return []
    wasted = sum(rows for _ref, rows in zero)
    return [
        Finding(
            detector="pruning_regression",
            severity="warning",
            job_id=job.job_id,
            message=(
                f"pruning regression: {len(zero)} of {len(scanned)} scanned "
                f"splits produced no outputs ({wasted:,} rows read) despite "
                f"split statistics pruning {job.splits_pruned} splits"
            ),
            evidence=tuple(ref for ref, _rows in zero[:8]),
            suggestion=(
                "rebuild split statistics (zone maps / bloom filters) — "
                "they no longer cover the predicate's column or the data "
                "moved since the stats were collected"
            ),
        )
    ]


@detector("ci_stall")
def detect_ci_stall(job: JobModel, graph: SpanGraph) -> list[Finding]:
    """A WITHIN…ERROR job's confidence interval stopped converging."""
    widths: list[tuple[int, float, bool]] = []
    for evaluation in job.evaluations:
        ci = evaluation.response_ci
        if not isinstance(ci, dict):
            continue
        half = ci.get("half_width")
        if half is None:
            continue
        widths.append((evaluation.seq, float(half), bool(ci.get("met"))))
    if len(widths) < CI_WINDOW + 1:
        return []
    if widths[-1][2]:
        return []  # Converged; a long tail before `met` is fine.
    window = widths[-(CI_WINDOW + 1) :]
    first, last = window[0][1], window[-1][1]
    if first <= 0:
        return []
    shrink = (first - last) / first
    if shrink >= CI_MIN_SHRINK:
        return []
    return [
        Finding(
            detector="ci_stall",
            severity="warning",
            job_id=job.job_id,
            message=(
                f"CI convergence stalled: half-width ±{last:.4g} shrank "
                f"only {shrink * 100.0:.2f}% over the last {CI_WINDOW} "
                f"evaluations without meeting the target"
            ),
            evidence=tuple(f"eval:seq={seq}" for seq, _h, _m in window),
            suggestion=(
                "raise GrabLimit (more splits per round shrink the "
                "interval faster) or loosen the WITHIN…ERROR target"
            ),
        )
    ]
