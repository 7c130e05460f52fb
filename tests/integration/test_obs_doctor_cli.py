"""End-to-end tests for ``repro doctor``, ``repro slo check``,
``repro audit --format json``, the watchdog alert surfaces, and the
exporter's bind-failure behavior.

The CI observability job leans on the exit-code contracts here: doctor
exits 0 on the golden trace and 1 on every seeded mutant; slo check
exits 0/1 on met/missed objectives and 2 on operator errors; a taken
``--metrics-port`` is one stderr line and exit 2, never a traceback.
"""

import io
import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).parent.parent.parent
DATA = REPO / "tests" / "data"
GOLDEN = DATA / "golden_trace.jsonl"

PASSING_SPEC = """\
{
  "latency": {"max_s": 150.0},
  "throughput": {"rows_per_sec_floor": 100000},
  "findings": {"max_total": 0}
}
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _slow_trace(tmp_path, *anomalies) -> Path:
    out = tmp_path / ("slow_" + "_".join(anomalies or ("all",)) + ".jsonl")
    argv = [sys.executable, str(DATA / "make_slow_trace.py"), str(out)]
    for anomaly in anomalies:
        argv += ["--anomaly", anomaly]
    subprocess.run(argv, check=True, cwd=REPO)
    return out


class TestDoctorCli:
    def test_golden_trace_exits_zero_with_clean_report(self, capsys):
        code, text = run_cli(["doctor", str(GOLDEN)])
        assert code == 0
        assert "# repro doctor" in text
        assert "- findings: 0" in text
        assert capsys.readouterr().err == ""

    def test_mutant_trace_exits_one_and_notes_findings(self, tmp_path, capsys):
        trace = _slow_trace(tmp_path)
        code, text = run_cli(["doctor", str(trace)])
        assert code == 1
        assert "- findings: 5" in text
        assert "doctor: 5 finding(s)" in capsys.readouterr().err

    def test_json_format_parses_with_expected_detectors(self, tmp_path):
        trace = _slow_trace(tmp_path)
        code, text = run_cli(["doctor", str(trace), "--format", "json"])
        assert code == 1
        payload = json.loads(text)
        assert set(payload["summary"]["by_detector"]) == {
            "straggler", "scheduler_stall", "slot_starvation",
            "split_skew", "selectivity_drift",
        }

    def test_report_is_byte_deterministic_across_invocations(self):
        renders = {run_cli(["doctor", str(GOLDEN)])[1] for _ in range(2)}
        assert len(renders) == 1

    def test_out_writes_file(self, tmp_path):
        report = tmp_path / "doctor.md"
        code, text = run_cli(["doctor", str(GOLDEN), "--out", str(report)])
        assert code == 0
        assert f"wrote {report}" in text
        assert report.read_text().startswith("# repro doctor")

    def test_diff_is_exploratory_and_exits_zero(self, tmp_path):
        trace = _slow_trace(tmp_path, "stall")
        code, text = run_cli(["doctor", str(trace), "--diff", str(GOLDEN)])
        assert code == 0
        assert "# repro doctor diff" in text
        assert "resolved" in text

    def test_diff_refuses_json(self, tmp_path, capsys):
        code, _ = run_cli(
            ["doctor", str(GOLDEN), "--diff", str(GOLDEN), "--format", "json"]
        )
        assert code == 2
        assert "markdown only" in capsys.readouterr().err


class TestSloCli:
    def test_met_objectives_exit_zero(self, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text(PASSING_SPEC)
        code, text = run_cli(["slo", "check", "--spec", str(spec), str(GOLDEN)])
        assert code == 0
        assert "slo: 3 objective(s) checked, ok" in text

    def test_missed_objective_exits_one(self, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text('{"latency": {"max_s": 1.0}}')
        code, text = run_cli(["slo", "check", "--spec", str(spec), str(GOLDEN)])
        assert code == 1
        assert "[FAIL] latency.max_s" in text

    def test_json_format(self, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text(PASSING_SPEC)
        code, text = run_cli(
            ["slo", "check", "--spec", str(spec), "--format", "json", str(GOLDEN)]
        )
        assert code == 0
        assert json.loads(text)["ok"] is True

    def test_no_inputs_is_an_operator_error(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(PASSING_SPEC)
        code, _ = run_cli(["slo", "check", "--spec", str(spec)])
        assert code == 2
        assert "needs at least one TRACE" in capsys.readouterr().err

    def test_bad_spec_is_an_operator_error(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text('{"latency": {"p42_s": 1}}')
        code, _ = run_cli(["slo", "check", "--spec", str(spec), str(GOLDEN)])
        assert code == 2
        assert "unknown latency objective" in capsys.readouterr().err

    def test_yaml_spec_is_a_one_line_operator_error(self, tmp_path, capsys):
        spec = tmp_path / "slo.yml"
        spec.write_text("latency:\n  max_s: 150.0\n")
        code, text = run_cli(["slo", "check", "--spec", str(spec), str(GOLDEN)])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: SLO spec is not JSON:")
        assert err.count("\n") == 1


class TestAuditJson:
    def test_json_is_stable_and_machine_readable(self):
        first = run_cli(["audit", str(GOLDEN), "--format", "json"])
        second = run_cli(["audit", str(GOLDEN), "--format", "json"])
        assert first == second
        code, text = first
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["jobs_checked"] == 1

    def test_json_reports_violations_and_exit_one(self, tmp_path):
        events = [json.loads(l) for l in GOLDEN.read_text().splitlines() if l]
        import importlib.util

        loader = importlib.util.spec_from_file_location(
            "mmt", DATA / "make_mutated_trace.py"
        )
        mmt = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(mmt)
        mmt.mutate(events)
        trace = tmp_path / "mutant.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        code, text = run_cli(["audit", str(trace), "--format", "json"])
        assert code == 1
        payload = json.loads(text)
        assert payload["ok"] is False
        assert payload["violations"]
        assert {"check", "job_id", "message", "seq"} <= set(
            payload["violations"][0]
        )


class TestExporterBindFailure:
    def test_taken_port_is_one_line_and_exit_two(self):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "sample", "--scale", "2",
                 "--k", "100", "--metrics-port", str(port)],
                cwd=REPO, capture_output=True, text=True,
                env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        error_lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(error_lines) == 1
        assert f"cannot serve telemetry on port {port}" in error_lines[0]


class TestAlertSurfaces:
    def _stalled_hub_snapshot(self):
        from repro.obs.hub import TelemetryHub

        with TelemetryHub() as hub:
            hub.on_event({
                "v": 1, "seq": 0, "time": 0.0, "type": "provider_evaluation",
                "job_id": "j1", "phase": "evaluate", "policy": "LA",
                "knobs": {"work_threshold_pct": 50.0,
                          "grab_limit": "0.2 * TS",
                          "evaluation_interval": 4.0},
                "progress": None, "cluster": None,
                "response": {"kind": "INPUT_AVAILABLE", "splits": 2},
            })
            hub.on_event({
                "v": 1, "seq": 1, "time": 9.0, "type": "provider_evaluation",
                "job_id": "j1", "phase": "evaluate", "policy": "LA",
                "knobs": {"work_threshold_pct": 50.0,
                          "grab_limit": "0.2 * TS",
                          "evaluation_interval": 4.0},
                "progress": None, "cluster": None,
                "response": {"kind": "NO_INPUT_AVAILABLE", "splits": 0},
            })
            return hub.snapshot()

    def test_hub_snapshot_surfaces_watchdog_alerts(self):
        snapshot = self._stalled_hub_snapshot()
        (alert,) = snapshot["alerts"]
        assert alert["detector"] == "scheduler_stall"
        assert alert["severity"] == "critical"

    def test_exporter_renders_alert_gauges(self):
        from repro.obs.export import parse_exposition, render_hub_prometheus

        text = render_hub_prometheus(self._stalled_hub_snapshot())
        samples = parse_exposition(text)
        assert samples["repro_alerts_active"] == [({}, 1.0)]
        ((labels, value),) = samples["repro_alert"]
        assert value == 1.0
        assert labels["detector"] == "scheduler_stall"
        assert labels["severity"] == "critical"
        assert labels["job"] == "j1"

    def test_healthy_hub_exports_zero_active_alerts(self):
        from repro.obs.export import parse_exposition, render_hub_prometheus
        from repro.obs.hub import TelemetryHub

        with TelemetryHub() as hub:
            samples = parse_exposition(render_hub_prometheus(hub.snapshot()))
        assert samples["repro_alerts_active"] == [({}, 0.0)]
        assert "repro_alert" not in samples

    def test_top_shows_alert_banner(self):
        from repro.obs.top import render_top

        frame = render_top(self._stalled_hub_snapshot())
        assert "! ALERT [critical] j1 scheduler_stall:" in frame

    def test_top_degrades_without_alert_series(self):
        # Snapshots from producers that predate the watchdog carry no
        # "alerts" key at all; the banner must simply not render.
        from repro.obs.top import render_top

        legacy = {"uptime_s": 1.0, "events_seen": 0, "jobs": {}}
        frame = render_top(legacy)
        assert "ALERT" not in frame
        assert "repro top" in frame


class TestWatchdogParity:
    """The watchdog is strictly read-side: ``--metrics-port`` (which
    attaches the hub and therefore the live detectors to every trace
    event) changes no job stdout on either substrate. The endpoint
    notice goes to stderr by contract."""

    SIM_ARGV = ["sample", "--scale", "2", "--k", "100", "--policy", "LA"]
    LOCAL_ARGV = ["query",
                  "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 5",
                  "--rows", "6000"]

    def _parity(self, argv, capsys):
        bare_code, bare_text = run_cli(argv)
        capsys.readouterr()
        live_code, live_text = run_cli(argv + ["--metrics-port", "0"])
        err = capsys.readouterr().err
        assert "telemetry: http://127.0.0.1:" in err
        assert bare_code == live_code == 0
        assert bare_text == live_text

    def test_simulated_substrate_output_is_identical(self, capsys):
        self._parity(self.SIM_ARGV, capsys)

    def test_local_substrate_output_is_identical(self, capsys):
        self._parity(self.LOCAL_ARGV, capsys)
