"""Unit tests for SLO gates (:mod:`repro.obs.slo`).

Specs are JSON, parsed by :func:`json.loads` on every interpreter.
Evaluation is pinned against the golden trace — a fully deterministic
run, so targets can be exact.
"""

import json
from pathlib import Path

import pytest

from repro.obs.slo import (
    SloSpecError,
    evaluate_trace_slo,
    parse_slo_spec,
    render_slo,
    slo_json,
)

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_trace.jsonl"

#: The nightly gate CI runs on the golden trace.
SPEC_TEXT = (DATA / "slo.json").read_text()


def _golden_events() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line]


class TestParseSpec:
    def test_parses_the_committed_spec(self):
        spec = parse_slo_spec(SPEC_TEXT)
        assert spec["latency"] == {"p50_s": 120.0, "max_s": 150.0, "mean_s": 120.0}
        assert spec["throughput"] == {"rows_per_sec_floor": 100000}
        assert spec["findings"]["max_total"] == 0

    def test_yaml_is_a_one_line_error(self):
        with pytest.raises(SloSpecError, match="not JSON") as err:
            parse_slo_spec("latency:\n  p50_s: 1\n")
        assert "\n" not in str(err.value)

    def test_spec_must_be_an_object(self):
        with pytest.raises(SloSpecError, match="must be an object, got list"):
            parse_slo_spec('[{"latency": {"p50_s": 1}}]')

    def test_section_must_be_an_object(self):
        with pytest.raises(SloSpecError, match="section 'throughput' must be an object"):
            parse_slo_spec('{"throughput": 5}')

    def test_unknown_section_is_an_error(self):
        with pytest.raises(SloSpecError, match="unknown SLO section"):
            parse_slo_spec('{"latencies": {"p50_s": 1}}')

    def test_bench_section_is_an_unknown_section(self):
        with pytest.raises(SloSpecError, match="unknown SLO section 'bench'"):
            parse_slo_spec('{"bench": {"floors": {"kernel.events_per_sec": 1}}}')

    def test_unknown_latency_key_is_an_error(self):
        with pytest.raises(SloSpecError, match="unknown latency objective"):
            parse_slo_spec('{"latency": {"p42_s": 1}}')

    def test_string_target_is_an_error(self):
        spec = parse_slo_spec('{"throughput": {"rows_per_sec_floor": "1.0e6"}}')
        with pytest.raises(SloSpecError, match="must be a number"):
            evaluate_trace_slo(spec, _golden_events())

    def test_empty_spec_is_a_valid_no_op(self):
        assert parse_slo_spec("{}") == {}


class TestTraceEvaluation:
    def test_golden_trace_passes_the_nightly_spec(self):
        report = evaluate_trace_slo(parse_slo_spec(SPEC_TEXT), _golden_events())
        assert report.ok, [c for c in report.checks if not c.ok]
        assert len(report.checks) == 9

    def test_latency_objectives_use_recorded_wall_time(self):
        spec = parse_slo_spec('{"latency": {"max_s": 100.0}}')
        report = evaluate_trace_slo(spec, _golden_events())
        (check,) = report.checks
        # The golden job's recorded response time (109.56s) misses a
        # 100s ceiling — the check must carry the measured value.
        assert not check.ok
        assert check.actual == pytest.approx(109.5576234)

    def test_findings_cap_fails_on_a_dirty_trace(self):
        import importlib.util

        spec_path = DATA / "make_slow_trace.py"
        loader = importlib.util.spec_from_file_location("mst", spec_path)
        mst = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(mst)
        events = mst.mutate(_golden_events(), ("stall",))
        spec = parse_slo_spec('{"findings": {"max_critical": 0}}')
        report = evaluate_trace_slo(spec, events)
        (check,) = report.checks
        assert not check.ok
        assert check.actual == 1.0

    def test_accuracy_floor_is_vacuous_without_accuracy_jobs(self):
        spec = parse_slo_spec('{"accuracy": {"ci_coverage_floor": 1.0}}')
        report = evaluate_trace_slo(spec, _golden_events())
        (check,) = report.checks
        assert check.ok
        assert check.actual is None
        assert "no accuracy jobs" in check.detail

    def test_straggler_ratio_counts_distinct_attempts(self):
        spec = parse_slo_spec('{"stragglers": {"max_ratio": 0.0}}')
        report = evaluate_trace_slo(spec, _golden_events())
        (check,) = report.checks
        assert check.ok
        assert check.actual == 0.0
        assert "36 finished attempts" in check.detail


class TestRendering:
    def _reports(self):
        spec = parse_slo_spec('{"latency": {"max_s": 100.0, "p50_s": 120.0}}')
        return [evaluate_trace_slo(spec, _golden_events(), source="golden")]

    def test_text_lists_pass_and_fail_lines(self):
        text = render_slo(self._reports())
        assert "slo check — golden" in text
        assert "[FAIL] latency.max_s" in text
        assert "[PASS] latency.p50_s" in text
        assert text.rstrip().endswith("1 objective(s) missed")

    def test_json_round_trips_with_stable_keys(self):
        first = slo_json(self._reports())
        second = slo_json(self._reports())
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is False
        assert len(payload["reports"][0]["checks"]) == 2
