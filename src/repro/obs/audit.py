"""Paper-invariant auditor: replay a trace and verify the Table I contract.

A recorded trace carries, for every Input Provider invocation, the exact
``JobProgress`` and ``ClusterStatus`` the provider saw plus the policy
knobs in force (work threshold, grab-limit expression, evaluation
interval). That is enough to *re-check the paper's policy contract after
the fact*, independently of the engine that produced the run:

**Policy contract (paper §III-A/§III-B, Table I)**

* ``grab_limit`` — no response ever hands out more splits than the
  policy's GrabLimit evaluated against the recorded TS/AS.
* ``work_threshold`` — between consecutive evaluations, the newly
  completed splits reach the policy's WorkThreshold (as a fraction of
  the splits added so far), except via the all-work-done escape hatch
  (``splits_pending == 0``; see DESIGN.md §5).
* ``end_of_input`` — ``END_OF_INPUT`` is only declared once the job has
  ``k`` results (``outputs_produced >= sample_size``) or the input is
  exhausted (every split either added or retired via split statistics —
  a stats-aware provider's pruned splits count as processed with zero
  matches, so ``splits_added + pruned >= total`` is exhaustion).
* ``pruned_monotonic`` — the cumulative pruned count never decreases and
  never exceeds the job's total split count.
* ``no_input_after_end`` — after ``END_OF_INPUT`` the provider is never
  invoked again and no further splits are added.
* ``accuracy_stopping`` — for accuracy (error-bounded aggregation) jobs,
  whose evaluations carry a ``ci`` state: once the CI target is met the
  provider never grants more input, and ``END_OF_INPUT`` is declared
  only with the target met or the input exhausted.
* ``splits_added_replay`` — at every evaluation, the progress the
  provider saw satisfies ``splits_added == sum of all prior grants``
  (client/tracker split accounting agrees with the provider's own
  history).

**Task accounting (Hadoop attempt semantics)**

* ``task_terminal`` — every started map attempt reaches exactly one
  terminal event (``map_finished`` or ``map_failed``); no terminal
  without a start; no attempt terminates twice.
* ``retry_accounting`` — every failure is followed by a retry attempt
  unless the job was killed, and the job's ``failed_map_attempts``
  counter equals the number of ``map_failed`` events.
* ``counter_consistency`` — the job's final metrics snapshot agrees
  with the event stream (records, map outputs, evaluations,
  increments).

The auditor is read-only and substrate-agnostic: LocalRunner traces have
no task lifecycle, so the task checks vacuously pass there, while the
policy checks replay identically on both substrates. ``repro audit``
exits non-zero on any violation so CI can gate on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.policy import GrabLimitExpression


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to the event that broke it."""

    check: str
    job_id: str | None
    seq: int | None
    message: str

    def describe(self) -> str:
        where = f"{self.job_id or '(run)'}"
        if self.seq is not None:
            where += f" seq={self.seq}"
        return f"[{self.check}] {where}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of one audit: violations plus replay statistics."""

    violations: list[Violation] = field(default_factory=list)
    jobs_checked: int = 0
    evaluations_checked: int = 0
    attempts_checked: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, job_id: str | None, seq: int | None, message: str) -> None:
        self.violations.append(
            Violation(check=check, job_id=job_id, seq=seq, message=message)
        )


def _max_grab(grab_source: str, *, total_slots: float, available_slots: float) -> float:
    """Replay ``Policy.max_grab`` from the recorded grab-limit expression."""
    value = GrabLimitExpression(grab_source).evaluate(
        ts=total_slots, available=available_slots
    )
    if value <= 0:
        return 0
    if math.isinf(value):
        return math.inf
    return math.ceil(value)


def _work_threshold_splits(pct: float, splits_added: int) -> int:
    return math.ceil(pct / 100.0 * splits_added)


# ---------------------------------------------------------------------------
# Per-job audit passes
# ---------------------------------------------------------------------------
def _audit_policy_contract(job, report: AuditReport) -> None:
    """Replay every provider evaluation against the Table I contract."""
    granted = 0  # splits handed out so far (initial + INPUT_AVAILABLE)
    ended_at: int | None = None  # seq of the END_OF_INPUT response
    prev_completed = 0
    prev_pruned = 0
    k = job.sample_size

    for evaluation in job.evaluations:
        report.evaluations_checked += 1
        seq = evaluation.seq
        knobs = evaluation.knobs or {}
        cluster = evaluation.cluster or {}
        progress = evaluation.progress
        kind = evaluation.response_kind
        splits = evaluation.response_splits
        pruned = evaluation.response_pruned

        # Pruned is a cumulative counter: never decreasing, never more
        # than the job's whole input.
        if pruned < prev_pruned:
            report.add(
                "pruned_monotonic", job.job_id, seq,
                f"cumulative pruned count fell from {prev_pruned} to {pruned}",
            )
        if job.total_splits is not None and pruned > job.total_splits:
            report.add(
                "pruned_monotonic", job.job_id, seq,
                f"pruned {pruned} splits but the job only has "
                f"{job.total_splits}",
            )
        prev_pruned = max(prev_pruned, pruned)

        if ended_at is not None:
            report.add(
                "no_input_after_end", job.job_id, seq,
                f"provider invoked again after END_OF_INPUT (seq={ended_at})",
            )

        # Response shape: only INPUT_AVAILABLE carries splits.
        if kind == "INPUT_AVAILABLE" and splits <= 0:
            report.add(
                "response_shape", job.job_id, seq,
                "INPUT_AVAILABLE response carries no splits",
            )
        if kind != "INPUT_AVAILABLE" and splits > 0 and evaluation.phase != "initial":
            report.add(
                "response_shape", job.job_id, seq,
                f"{kind} response carries {splits} splits",
            )

        # GrabLimit: replayed from the recorded expression and TS/AS.
        grab_source = knobs.get("grab_limit")
        if grab_source and splits > 0:
            limit = _max_grab(
                grab_source,
                total_slots=cluster.get("total_map_slots", 0),
                available_slots=cluster.get("available_map_slots", 0),
            )
            if splits > limit:
                report.add(
                    "grab_limit", job.job_id, seq,
                    f"granted {splits} splits, but GrabLimit "
                    f"{grab_source!r} allows {limit:g} "
                    f"(TS={cluster.get('total_map_slots')}, "
                    f"AS={cluster.get('available_map_slots')})",
                )

        if evaluation.phase == "evaluate" and progress is not None:
            # Splits-added replay: tracker-side accounting must equal the
            # provider's own grant history.
            if progress["splits_added"] != granted:
                report.add(
                    "splits_added_replay", job.job_id, seq,
                    f"progress reports splits_added={progress['splits_added']} "
                    f"but prior responses granted {granted}",
                )

            # WorkThreshold between consecutive evaluations.
            threshold_pct = knobs.get("work_threshold_pct")
            if threshold_pct is not None:
                threshold = _work_threshold_splits(
                    threshold_pct, progress["splits_added"]
                )
                newly = progress["splits_completed"] - prev_completed
                if newly < threshold and progress["splits_pending"] > 0:
                    report.add(
                        "work_threshold", job.job_id, seq,
                        f"evaluated after {newly} newly completed splits "
                        f"(< threshold {threshold} = "
                        f"{threshold_pct:g}% of {progress['splits_added']}) "
                        f"with {progress['splits_pending']} splits in flight",
                    )
            prev_completed = progress["splits_completed"]

            # END_OF_INPUT only at >= k results or input exhaustion.
            # Splits the provider pruned via statistics were processed
            # with provably zero matches, so they count toward
            # exhaustion without ever being added.
            if kind == "END_OF_INPUT":
                exhausted = (
                    progress["splits_added"] + pruned
                    >= progress["total_splits_known"]
                )
                if k is not None and progress["outputs_produced"] < k and not exhausted:
                    report.add(
                        "end_of_input", job.job_id, seq,
                        f"END_OF_INPUT at {progress['outputs_produced']} outputs "
                        f"(< k={k}) with "
                        f"{progress['total_splits_known'] - progress['splits_added'] - pruned} "
                        "splits never added nor pruned",
                    )
        elif evaluation.phase == "initial" and kind == "END_OF_INPUT":
            # Initial END_OF_INPUT means the whole input was grabbed
            # (or the remainder was pruned via split statistics).
            if job.total_splits is not None and splits + pruned < job.total_splits:
                report.add(
                    "end_of_input", job.job_id, seq,
                    f"initial grab declared END_OF_INPUT with {splits} of "
                    f"{job.total_splits} splits ({pruned} pruned)",
                )

        # Accuracy stopping contract: accuracy-provider evaluations carry
        # a CI snapshot, which is exactly enough to replay the stopping
        # rule after the fact.
        ci = evaluation.response_ci
        if ci is not None:
            if ci.get("met") and kind == "INPUT_AVAILABLE":
                report.add(
                    "accuracy_stopping", job.job_id, seq,
                    f"granted {splits} splits although the CI target is "
                    f"already met (estimate={ci.get('estimate')} "
                    f"+/- {ci.get('half_width')} at {ci.get('target_pct')}% "
                    "target)",
                )
            if kind == "END_OF_INPUT" and not ci.get("met"):
                if evaluation.phase == "evaluate" and progress is not None:
                    exhausted = (
                        progress["splits_added"] + splits + pruned
                        >= progress["total_splits_known"]
                    )
                elif job.total_splits is not None:
                    exhausted = splits + pruned >= job.total_splits
                else:
                    exhausted = True  # total unknown; cannot dispute
                if not exhausted:
                    report.add(
                        "accuracy_stopping", job.job_id, seq,
                        "END_OF_INPUT with the CI target unmet and input "
                        f"not exhausted (n={ci.get('n')} splits observed, "
                        f"estimate={ci.get('estimate')} "
                        f"+/- {ci.get('half_width')})",
                    )

        if kind == "END_OF_INPUT":
            ended_at = seq
        if splits > 0 and kind in ("INPUT_AVAILABLE", "END_OF_INPUT"):
            granted += splits

    # No splits added after END_OF_INPUT (tracker side).
    if ended_at is not None:
        end_time = next(
            e.time for e in job.evaluations if e.seq == ended_at
        )
        for time, splits in job.input_added_events:
            if time > end_time:
                report.add(
                    "no_input_after_end", job.job_id, None,
                    f"{splits} splits added at t={time:g} after END_OF_INPUT "
                    f"at t={end_time:g}",
                )


def _audit_task_accounting(job, report: AuditReport) -> None:
    """Attempt lifecycle + counter consistency (sim-substrate traces)."""
    if not job.attempts:
        return

    for task_id in job.attempt_order:
        attempt = job.attempts[task_id]
        report.attempts_checked += 1
        if attempt.start is None:
            # map_retried creates the attempt; it must still be started
            # before it can terminate. A terminal with no start is broken.
            if attempt.outcome is not None:
                report.add(
                    "task_terminal", job.job_id, None,
                    f"attempt {task_id} reached terminal state "
                    f"{attempt.outcome!r} without a map_started event",
                )
            elif job.state is not None:
                report.add(
                    "task_terminal", job.job_id, None,
                    f"attempt {task_id} was created (retry) but never started",
                )
        elif attempt.outcome is None and job.state is not None:
            report.add(
                "task_terminal", job.job_id, None,
                f"attempt {task_id} started at t={attempt.start:g} but has "
                "no terminal event (map_finished/map_failed)",
            )

    failed = [a for a in job.attempts.values() if a.outcome == "failed"]
    if job.state == "succeeded":
        for attempt in failed:
            if attempt.retried_as is None:
                report.add(
                    "retry_accounting", job.job_id, None,
                    f"failed attempt {attempt.task_id} has no retry but the "
                    "job succeeded",
                )

    metrics = job.metrics
    if metrics is None:
        if job.state is not None:
            report.add(
                "counter_consistency", job.job_id, None,
                "finished job has no metrics_snapshot event",
            )
        return

    def counter(name: str):
        entry = metrics.get(name)
        return None if entry is None else entry["value"]

    checks = (
        ("failed_map_attempts", len(failed)),
        (
            "records_processed",
            sum(a.records for a in job.attempts.values() if a.outcome == "finished"),
        ),
        (
            "outputs_produced",
            sum(a.outputs for a in job.attempts.values() if a.outcome == "finished"),
        ),
        (
            "provider_evaluations",
            sum(1 for e in job.evaluations if e.phase == "evaluate"),
        ),
        (
            "input_increments",
            len(job.input_added_events) + (1 if job.submitted_splits else 0),
        ),
    )
    for name, expected in checks:
        recorded = counter(name)
        if recorded is not None and recorded != expected:
            report.add(
                "counter_consistency", job.job_id, None,
                f"counter {name}={recorded} but the event stream implies "
                f"{expected}",
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def audit_events(events: Iterable[dict]) -> AuditReport:
    """Audit a full event stream; returns the report (never raises on
    violations — raising is reserved for untraceable input)."""
    from repro.obs.analyze import analyze_trace

    return audit_model(analyze_trace(events))


def audit_model(model) -> AuditReport:
    """Audit a trace already folded into a run model
    (:func:`~repro.obs.analyze.analyze_trace`), as ``repro doctor`` has."""
    report = AuditReport()
    for job in model.jobs.values():
        report.jobs_checked += 1
        _audit_policy_contract(job, report)
        _audit_task_accounting(job, report)
        if (
            job.sample_size is None
            and job.evaluations
            # Accuracy jobs stop on CI width, not k; their evaluations
            # carry a ci state and the accuracy_stopping check applies.
            and not job.error_bounded
        ):
            report.notes.append(
                f"{job.job_id}: no sample_size recorded; END_OF_INPUT k-check "
                "limited to input exhaustion"
            )
    return report


def render_audit(report: AuditReport) -> str:
    """Human-readable audit outcome (what ``repro audit`` prints)."""
    lines = [
        f"jobs audited:        {report.jobs_checked}",
        f"evaluations checked: {report.evaluations_checked}",
        f"attempts checked:    {report.attempts_checked}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    if report.ok:
        lines.append("audit OK: all paper invariants hold")
    else:
        lines.append(f"audit FAILED: {len(report.violations)} violation(s)")
        for violation in report.violations:
            lines.append(f"  {violation.describe()}")
    return "\n".join(lines)


def audit_json(report: AuditReport) -> str:
    """Machine-readable audit outcome (``repro audit --format json``).

    Stable key order and a trailing newline, so the doctor and CI can
    consume audits without parsing the human text — and so two runs of
    the same trace compare byte-for-byte.
    """
    payload = {
        "ok": report.ok,
        "jobs_checked": report.jobs_checked,
        "evaluations_checked": report.evaluations_checked,
        "attempts_checked": report.attempts_checked,
        "notes": list(report.notes),
        "violations": [
            {
                "check": violation.check,
                "job_id": violation.job_id,
                "seq": violation.seq,
                "message": violation.message,
            }
            for violation in report.violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
