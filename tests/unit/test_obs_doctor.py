"""Unit tests for ``repro doctor`` (:mod:`repro.obs.doctor`).

Covers the post-hoc half (diagnosis, byte-deterministic rendering,
audit folding, the two-trace diff) and the live half (the Watchdog's
incremental alerts: raise, update, clear, and the all-zero-timestamp
LocalRunner case that must never alert).
"""

import importlib.util
import json
from pathlib import Path

from repro import SimulatedCluster
from repro.approx.job import make_approx_conf
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.obs.doctor import (
    Watchdog,
    diagnose,
    doctor_json,
    render_doctor,
    render_doctor_diff,
)
from repro.obs.trace import TraceRecorder

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_trace.jsonl"


def _load_mutator(name: str):
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_slow_trace = _load_mutator("make_slow_trace")
make_mutated_trace = _load_mutator("make_mutated_trace")


def _golden_events() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line]


class TestDiagnose:
    def test_golden_trace_diagnoses_clean(self):
        diagnosis = diagnose(_golden_events())
        assert diagnosis.ok
        assert diagnosis.findings == []
        assert diagnosis.audit.ok

    def test_findings_sort_severity_first_within_job(self):
        events = make_slow_trace.mutate(
            _golden_events(), make_slow_trace.ANOMALIES
        )
        diagnosis = diagnose(events)
        severities = [f.severity for f in diagnosis.findings]
        assert severities == sorted(
            severities, key=lambda s: {"critical": 0, "warning": 1}[s]
        )

    def test_audit_violations_fold_in_as_critical_findings(self):
        events = _golden_events()
        make_mutated_trace.mutate(events)
        diagnosis = diagnose(events)
        assert not diagnosis.audit.ok
        audit_findings = [
            f for f in diagnosis.findings if f.detector.startswith("audit:")
        ]
        assert audit_findings
        assert all(f.severity == "critical" for f in audit_findings)
        assert all(
            f.suggestion and "repro audit" in f.suggestion for f in audit_findings
        )


class TestRendering:
    def test_markdown_is_byte_deterministic(self):
        events = make_slow_trace.mutate(
            _golden_events(), make_slow_trace.ANOMALIES
        )
        renders = {render_doctor(diagnose(list(events))) for _ in range(2)}
        assert len(renders) == 1

    def test_json_is_byte_deterministic_and_parses(self):
        first = doctor_json(diagnose(_golden_events()))
        second = doctor_json(diagnose(_golden_events()))
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["findings"] == 0
        assert payload["summary"]["audit_ok"] is True

    def test_json_critical_path_reconciles_with_wall_time(self):
        payload = json.loads(doctor_json(diagnose(_golden_events())))
        (job,) = payload["jobs"].values()
        assert job["critical_path_s"] == job["wall_time_s"]
        walked = (
            sum(s["wait_s"] + s["duration_s"] for s in job["critical_path"])
            + job["critical_path_tail_s"]
        )
        assert abs(walked - job["wall_time_s"]) < 1e-9

    def test_markdown_shows_critical_path_table_and_findings(self):
        events = make_slow_trace.mutate(_golden_events(), ("stall",))
        text = render_doctor(diagnose(events))
        assert "### critical path" in text
        assert "| # | span | via | wait (s) | duration (s) |" in text
        assert "**[critical] scheduler_stall**" in text
        assert "suggestion:" in text

    def test_clean_job_renders_none_for_findings(self):
        text = render_doctor(diagnose(_golden_events()))
        assert "(none)" in text


class TestDiff:
    def test_identical_traces_diff_quiet(self):
        text = render_doctor_diff(
            diagnose(_golden_events()), diagnose(_golden_events())
        )
        assert "(no finding appeared or disappeared)" in text
        assert "| +0.000 |" in text

    def test_regression_shows_new_findings_and_delta(self):
        slow = make_slow_trace.mutate(_golden_events(), ("stall",))
        text = render_doctor_diff(
            diagnose(_golden_events()), diagnose(slow), names=("before", "after")
        )
        assert "new in after: **[critical] scheduler_stall**" in text
        assert "resolved" not in text
        # The stall slips everything after wave 2 by 10s.
        assert "| +10.000 |" in text

    def test_fix_shows_resolved_findings(self):
        slow = make_slow_trace.mutate(_golden_events(), ("stall",))
        text = render_doctor_diff(diagnose(slow), diagnose(_golden_events()))
        assert "resolved in B: **[critical] scheduler_stall**" in text


class TestErrorBoundedTrace:
    """A simulated ``WITHIN … ERROR`` run over materialized rows: its map
    outputs are per-split group totals, which the report says, and no
    hit rate is read from them."""

    def test_report_counts_group_totals_and_skips_drift(self):
        predicate = predicate_for_skew(0)
        data = build_materialized_dataset(
            dataset_spec_for_scale(0.01, num_partitions=40),
            {predicate: 0.0}, seed=0, selectivity=0.05,
        )
        trace = TraceRecorder()
        cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
        cluster.load_dataset("/d", data)
        cluster.run_job(make_approx_conf(
            name="approx", input_path="/d", predicate=predicate,
            aggregate="sum:l_quantity", error_pct=2.0, group_by="l_returnflag",
        ))
        diagnosis = diagnose(trace.raw_events)
        assert diagnosis.audit.ok
        (job,) = diagnosis.model.jobs.values()
        assert job.error_bounded
        # Every split matches all three return flags: three totals each.
        assert job.map_outputs == 3 * job.splits_completed
        assert "selectivity_drift" not in {f.detector for f in diagnosis.findings}
        assert (
            f"{job.map_outputs:,} map outputs (per-split group totals"
            in render_doctor(diagnosis)
        )


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
def _ev(type_: str, *, time: float, job_id: str = "j1", task_id=None, **extra):
    event = {"v": 1, "seq": 0, "time": time, "type": type_, "job_id": job_id}
    if task_id is not None:
        event["task_id"] = task_id
    event.update(extra)
    return event


def _grant(*, time, splits, interval=4.0, ci=None, job_id="j1"):
    response = {"kind": "INPUT_AVAILABLE" if splits else "NO_INPUT_AVAILABLE",
                "splits": splits}
    if ci is not None:
        response["ci"] = ci
    return _ev(
        "provider_evaluation", time=time, job_id=job_id,
        phase="evaluate", policy="LA",
        knobs={"work_threshold_pct": 50.0, "grab_limit": "0.2 * TS",
               "evaluation_interval": interval},
        progress=None, cluster=None, response=response,
    )


def _alerts(watchdog):
    return {(a["job_id"], a["detector"]) for a in watchdog.alerts()}


class TestWatchdogStraggler:
    def _warmed(self):
        """Four overlapping 2s attempts completed, one left running.

        The attempts overlap (staggered starts, no gap before the
        running one) so the fixture isolates the straggler check — no
        idle time accrues that would trip slot_starvation alongside.
        """
        watchdog = Watchdog()
        for i in range(4):
            watchdog.on_event(_ev("map_started", time=float(i), task_id=f"m{i}"))
        for i in range(4):
            watchdog.on_event(_ev("map_finished", time=float(i) + 2.0,
                                  task_id=f"m{i}", detail={}))
        watchdog.on_event(_ev("map_started", time=5.0, task_id="slow"))
        return watchdog

    def test_overdue_attempt_raises_then_clears_on_finish(self):
        watchdog = self._warmed()
        assert _alerts(watchdog) == set()
        # Any later event advances the clock; 8.5s > 3x the 2s median.
        watchdog.on_event(_grant(time=13.5, splits=0))
        assert _alerts(watchdog) == {("j1", "straggler")}
        (alert,) = watchdog.alerts()
        assert alert["severity"] == "warning"
        assert "slow" in alert["message"]
        watchdog.on_event(_ev("map_finished", time=14.0, task_id="slow",
                              detail={}))
        assert _alerts(watchdog) == set()

    def test_on_pace_attempt_stays_quiet(self):
        watchdog = self._warmed()
        watchdog.on_event(_grant(time=7.0, splits=0))  # 2s in: on pace
        assert _alerts(watchdog) == set()


class TestWatchdogStall:
    def test_undispatched_grant_raises_then_dispatch_clears(self):
        watchdog = Watchdog()
        watchdog.on_event(_grant(time=0.0, splits=2, interval=4.0))
        assert _alerts(watchdog) == set()
        watchdog.on_event(_grant(time=9.0, splits=0))  # 9s > 2x4s
        assert _alerts(watchdog) == {("j1", "scheduler_stall")}
        (alert,) = watchdog.alerts()
        assert alert["severity"] == "critical"
        watchdog.on_event(_ev("map_started", time=9.5, task_id="m1"))
        watchdog.on_event(_ev("map_started", time=9.5, task_id="m2"))
        assert _alerts(watchdog) == set()

    def test_prompt_dispatch_never_alerts(self):
        watchdog = Watchdog()
        watchdog.on_event(_grant(time=0.0, splits=1, interval=4.0))
        watchdog.on_event(_ev("map_started", time=1.0, task_id="m1"))
        watchdog.on_event(_grant(time=20.0, splits=0))
        assert _alerts(watchdog) == set()


class TestWatchdogStarvation:
    def test_idle_gap_between_waves_raises(self):
        watchdog = Watchdog()
        watchdog.on_event(_ev("map_started", time=0.0, task_id="m1"))
        watchdog.on_event(_ev("map_finished", time=2.0, task_id="m1", detail={}))
        # 8s with nothing running, then the next wave dispatches: 8s of
        # 12s elapsed map phase idle, well over the 30% bar.
        watchdog.on_event(_ev("map_started", time=10.0, task_id="m2"))
        watchdog.on_event(_ev("map_finished", time=12.0, task_id="m2", detail={}))
        assert ("j1", "slot_starvation") in _alerts(watchdog)
        alert = next(a for a in watchdog.alerts()
                     if a["detector"] == "slot_starvation")
        assert "idle" in alert["message"]

    def test_back_to_back_waves_stay_quiet(self):
        watchdog = Watchdog()
        watchdog.on_event(_ev("map_started", time=0.0, task_id="m1"))
        watchdog.on_event(_ev("map_finished", time=4.0, task_id="m1", detail={}))
        watchdog.on_event(_ev("map_started", time=4.5, task_id="m2"))
        watchdog.on_event(_ev("map_finished", time=8.5, task_id="m2", detail={}))
        assert _alerts(watchdog) == set()


class TestWatchdogCi:
    def test_flat_interval_raises_until_met(self):
        watchdog = Watchdog()
        for i in range(5):
            watchdog.on_event(_grant(
                time=float(i), splits=0,
                ci={"estimate": 100.0, "half_width": 10.0, "met": False},
            ))
        assert _alerts(watchdog) == {("j1", "ci_stall")}
        watchdog.on_event(_grant(
            time=5.0, splits=0,
            ci={"estimate": 100.0, "half_width": 10.0, "met": True},
        ))
        assert _alerts(watchdog) == set()


class TestWatchdogLifecycle:
    def test_job_end_clears_every_alert(self):
        watchdog = Watchdog()
        watchdog.on_event(_grant(time=0.0, splits=2, interval=4.0))
        watchdog.on_event(_grant(time=9.0, splits=0))
        assert _alerts(watchdog)
        watchdog.on_event(_ev("job_succeeded", time=10.0, detail={}))
        assert watchdog.alerts() == []

    def test_jobs_are_tracked_independently(self):
        watchdog = Watchdog()
        watchdog.on_event(_grant(time=0.0, splits=2, interval=4.0, job_id="a"))
        watchdog.on_event(_grant(time=9.0, splits=0, job_id="a"))
        watchdog.on_event(_grant(time=9.0, splits=1, interval=4.0, job_id="b"))
        assert _alerts(watchdog) == {("a", "scheduler_stall")}

    def test_local_runner_zero_timestamps_never_alert(self):
        # The LocalRunner stamps every event 0.0; with no event-clock
        # progression there is no "overdue" and the watchdog stays
        # silent (the post-hoc doctor covers those runs).
        watchdog = Watchdog()
        watchdog.on_event(_grant(time=0.0, splits=4))
        for i in range(6):
            watchdog.on_event(_ev("map_started", time=0.0, task_id=f"m{i}"))
            watchdog.on_event(_ev("map_finished", time=0.0, task_id=f"m{i}",
                                  detail={}))
        watchdog.on_event(_ev("job_succeeded", time=0.0, detail={}))
        assert watchdog.alerts() == []

    def test_events_without_job_id_are_ignored(self):
        watchdog = Watchdog()
        watchdog.on_event({"v": 1, "seq": 0, "time": 1.0,
                           "type": "metrics_snapshot", "scope": "cluster"})
        assert watchdog.alerts() == []
