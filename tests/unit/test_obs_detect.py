"""Unit tests for the anomaly detectors (:mod:`repro.obs.detect`).

Two-sided contract, mirrored by the CI observability gate: the golden
trace (clean, deterministic, seeded retries included) must produce
**zero** findings from every detector, and each seeded mutant from
``tests/data/make_slow_trace.py`` must trip exactly its own detector.
The two detectors whose anomalies need job shapes the golden run never
exercises (accuracy CIs, split statistics) get synthetic event streams
instead.
"""

import importlib.util
import json
from pathlib import Path

from repro.obs.analyze import analyze_trace
from repro.obs.detect import DETECTORS, run_detectors
from repro.obs.spans import build_graphs

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_trace.jsonl"

_spec = importlib.util.spec_from_file_location(
    "make_slow_trace", DATA / "make_slow_trace.py"
)
make_slow_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_slow_trace)

_SEQ = 0


def _event(type_: str, *, time: float = 0.0, **fields) -> dict:
    global _SEQ
    event = {"v": 1, "seq": _SEQ, "time": time, "type": type_, **fields}
    _SEQ += 1
    return event


def _golden_events() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line]


def _findings(events, **kwargs):
    model = analyze_trace(events)
    return run_detectors(model, build_graphs(model), **kwargs)


def _mutant(*anomalies: str) -> list[dict]:
    return make_slow_trace.mutate(_golden_events(), anomalies)


class TestGoldenIsClean:
    def test_no_detector_fires_on_the_golden_trace(self):
        findings = _findings(_golden_events())
        assert findings == [], [f.as_dict() for f in findings]

    def test_registry_covers_the_documented_classes(self):
        assert set(DETECTORS) == {
            "straggler", "slot_starvation", "scheduler_stall", "split_skew",
            "selectivity_drift", "pruning_regression", "ci_stall",
        }


class TestSeededMutants:
    """Each mutant trips exactly its own detector (no cross-talk)."""

    def _detectors_fired(self, *anomalies: str) -> set[str]:
        return {f.detector for f in _findings(_mutant(*anomalies))}

    def test_straggler(self):
        findings = _findings(_mutant("straggler"))
        assert {f.detector for f in findings} == {"straggler"}
        (finding,) = findings
        # The stretched final-wave retry gates the reduce, so the
        # straggler sits on the critical path and escalates.
        assert finding.severity == "critical"
        assert "on the critical path" in finding.message
        assert any(ref.startswith("attempt:") for ref in finding.evidence)

    def test_scheduler_stall(self):
        findings = _findings(_mutant("stall"))
        assert {f.detector for f in findings} == {"scheduler_stall"}
        (finding,) = findings
        assert finding.severity == "critical"
        assert finding.evidence == ("grant:2",)

    def test_slot_starvation(self):
        findings = _findings(_mutant("starvation"))
        assert {f.detector for f in findings} == {"slot_starvation"}
        (finding,) = findings
        assert "WorkThreshold" in finding.message
        assert finding.suggestion and "lower it" in finding.suggestion

    def test_split_skew(self):
        findings = _findings(_mutant("skew"))
        assert {f.detector for f in findings} == {"split_skew"}
        (finding,) = findings
        assert "4.0x" in finding.message

    def test_selectivity_drift(self):
        findings = _findings(_mutant("drift"))
        assert {f.detector for f in findings} == {"selectivity_drift"}
        (finding,) = findings
        assert "rose" in finding.message

    def test_selectivity_drift_skips_error_bounded_jobs(self):
        # A WITHIN ... ERROR job's map outputs are per-split group totals,
        # so outputs / records is no hit rate: the same late-wave jump
        # must not read as drift once the evaluations carry a ci state.
        events = _mutant("drift")
        for event in events:
            if event["type"] == "provider_evaluation":
                event["response"]["ci"] = {"half_width": None, "met": False}
        assert "selectivity_drift" not in {f.detector for f in _findings(events)}

    def test_composed_mutant_trips_all_five(self):
        assert self._detectors_fired(*make_slow_trace.ANOMALIES) == {
            "straggler", "scheduler_stall", "slot_starvation",
            "split_skew", "selectivity_drift",
        }

    def test_mutants_still_pass_the_audit(self):
        # The doctor folds audit violations in as findings; the mutants
        # must be performance-shaped only, so the anomaly detectors are
        # provably the reporters in the tests above.
        from repro.obs.audit import audit_events

        for anomaly in make_slow_trace.ANOMALIES:
            assert audit_events(_mutant(anomaly)).ok, anomaly
        assert audit_events(_mutant(*make_slow_trace.ANOMALIES)).ok


def _evaluation(*, time, seq_ci=None, phase="evaluate", kind="NO_INPUT_AVAILABLE",
                splits=0, job_id="j1"):
    response = {"kind": kind, "splits": splits}
    if seq_ci is not None:
        response["ci"] = seq_ci
    return _event(
        "provider_evaluation", time=time, job_id=job_id, phase=phase,
        policy="LA",
        knobs={"work_threshold_pct": 50.0, "grab_limit": "0.2 * TS",
               "evaluation_interval": 5.0},
        progress=None,
        cluster={"total_map_slots": 4, "available_map_slots": 4,
                 "running_map_tasks": 0, "queued_map_tasks": 0},
        response=response,
    )


class TestCiStall:
    def _events(self, widths, met_last=False):
        events = [
            _event("job_submitted", time=0.0, job_id="j1",
                   detail={"name": "approx", "dynamic": True, "splits": 2,
                           "input_complete": False, "total_splits": 8}),
            _evaluation(time=0.0, phase="initial", kind="INPUT_AVAILABLE",
                        splits=2),
        ]
        for index, half in enumerate(widths):
            met = met_last and index == len(widths) - 1
            events.append(_evaluation(
                time=1.0 + index,
                seq_ci={"estimate": 100.0, "half_width": half, "met": met},
            ))
        return events

    def test_flat_interval_without_met_stalls(self):
        findings = _findings(self._events([10.0, 10.0, 10.0, 10.0, 10.0]))
        assert {f.detector for f in findings} == {"ci_stall"}
        (finding,) = findings
        assert finding.severity == "warning"
        assert len(finding.evidence) == 5
        assert all(ref.startswith("eval:seq=") for ref in finding.evidence)

    def test_converging_interval_is_healthy(self):
        assert _findings(self._events([10.0, 8.0, 6.0, 4.0, 2.0])) == []

    def test_met_target_suppresses_the_stall(self):
        events = self._events([10.0, 10.0, 10.0, 10.0, 10.0], met_last=True)
        assert _findings(events) == []

    def test_short_history_is_not_judged(self):
        assert _findings(self._events([10.0, 10.0])) == []


class TestPruningRegression:
    def _events(self, outputs_per_attempt, pruned=4):
        events = [
            _event("job_submitted", time=0.0, job_id="j1",
                   detail={"name": "pruned", "dynamic": True, "splits": 4,
                           "input_complete": False, "total_splits": 8}),
            _evaluation(time=0.0, phase="initial", kind="INPUT_AVAILABLE",
                        splits=len(outputs_per_attempt)),
        ]
        for index, outputs in enumerate(outputs_per_attempt):
            task = f"m{index}"
            events.append(_event("map_started", time=1.0, job_id="j1",
                                 task_id=task,
                                 detail={"attempt": 1, "node": "n1",
                                         "local": True}))
            events.append(_event("map_finished", time=2.0, job_id="j1",
                                 task_id=task,
                                 detail={"records": 1000, "outputs": outputs}))
        events.append(_evaluation(time=3.0, kind="END_OF_INPUT", splits=0))
        if pruned:
            events[-1]["response"]["pruned"] = pruned
        return events

    def test_zero_output_scans_under_stats_mode_regress(self):
        findings = _findings(self._events([0, 0, 0, 5]))
        assert {f.detector for f in findings} == {"pruning_regression"}
        (finding,) = findings
        assert "3 of 4" in finding.message
        assert finding.evidence == ("attempt:m0", "attempt:m1", "attempt:m2")

    def test_without_pruning_the_detector_stays_silent(self):
        # Zero-output scans are normal for a selective predicate; only a
        # run that *claimed* statistics coverage is held to the standard.
        assert _findings(self._events([0, 0, 0, 5], pruned=0)) == []

    def test_mostly_productive_scans_are_healthy(self):
        assert _findings(self._events([5, 5, 5, 0, 5, 5, 5, 5])) == []


class TestRunDetectors:
    def test_names_filter_selects_detectors(self):
        events = _mutant("straggler", "skew")
        findings = _findings(events, names=("split_skew",))
        assert {f.detector for f in findings} == {"split_skew"}

    def test_findings_are_deterministic(self):
        first = [f.as_dict() for f in _findings(_mutant(*make_slow_trace.ANOMALIES))]
        second = [f.as_dict() for f in _findings(_mutant(*make_slow_trace.ANOMALIES))]
        assert first == second
