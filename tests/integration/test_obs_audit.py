"""End-to-end tests for ``repro audit``, ``repro report`` and ``--progress``.

The auditor must pass on fresh traces from every Table I policy on the
simulated cluster, from every scan mode on the LocalRunner, and from the
``sampling``, ``adaptive`` and ``static`` providers on both, and must
catch each seeded violation class (inflated grab, premature
END_OF_INPUT, missing terminal attempt event). Reports must be
byte-deterministic. ``--progress`` must leave job stdout untouched.
"""

import copy
import io
import json
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from repro import LocalRunner, SimulatedCluster, make_sampling_conf
from repro.cli import main
from repro.cluster import paper_topology
from repro.core.policy import PAPER_POLICY_NAMES
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.obs.audit import audit_events, render_audit
from repro.obs.trace import TraceRecorder, load_trace
from repro.scan import SCAN_MODES

GOLDEN = Path(__file__).parent.parent / "data" / "golden_trace.jsonl"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _sim_trace(tmp_path, policy: str, *, scale: int = 5, k: int = 2000) -> Path:
    path = tmp_path / f"sim_{policy}.jsonl"
    code, _ = run_cli(
        ["sample", "--scale", str(scale), "--k", str(k),
         "--policy", policy, "--trace-out", str(path)]
    )
    assert code == 0
    return path


def _local_trace(tmp_path, mode: str) -> Path:
    path = tmp_path / f"local_{mode}.jsonl"
    code, _ = run_cli(
        ["query", "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 5",
         "--rows", "6000", "--scan-mode", mode, "--trace-out", str(path)]
    )
    assert code == 0
    return path


class TestAuditCleanRuns:
    @pytest.mark.parametrize("policy", PAPER_POLICY_NAMES)
    def test_every_paper_policy_audits_clean_on_sim(self, tmp_path, policy):
        path = _sim_trace(tmp_path, policy)
        code, text = run_cli(["audit", str(path)])
        assert code == 0, text
        assert "audit OK" in text

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_every_scan_mode_audits_clean_on_local_runner(self, tmp_path, mode):
        path = _local_trace(tmp_path, mode)
        code, text = run_cli(["audit", str(path)])
        assert code == 0, text

    def test_golden_trace_audits_clean(self):
        # The golden run injects one map failure, so the retry and
        # counter invariants are exercised for real, not vacuously.
        report = audit_events(load_trace(GOLDEN))
        assert report.ok, render_audit(report)
        assert report.attempts_checked > 0
        assert report.evaluations_checked >= 2


PROVIDERS = ("sampling", "adaptive", "static")


class TestAuditEveryProvider:
    """The trace records the grab limit a grant was actually held to:
    the ladder's rung under ``adaptive``, no cap under ``static`` (all
    input at submission). Recording the job's own policy instead failed
    ``grab_limit`` on every ``adaptive`` and ``static`` run."""

    @pytest.mark.parametrize("policy", ["LA", "C"])
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_simulated_trace_audits_clean(self, provider, policy):
        predicate = predicate_for_skew(1)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {predicate: 1.0}, seed=0
        )
        trace = TraceRecorder()
        cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
        cluster.load_dataset("/d", data)
        cluster.run_job(make_sampling_conf(
            name="q", input_path="/d", predicate=predicate, sample_size=10_000,
            policy_name=policy, provider_name=provider,
        ))
        report = audit_events(trace.raw_events)
        assert report.ok, render_audit(report)
        assert report.evaluations_checked >= 1

    @pytest.mark.parametrize("policy", ["LA", "C"])
    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_local_runner_trace_audits_clean(self, provider, policy):
        predicate = predicate_for_skew(0)
        dataset = build_materialized_dataset(
            dataset_spec_for_scale(0.002, num_partitions=32),
            {predicate: 0.0}, seed=0, selectivity=0.01,
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", dataset)
        trace = TraceRecorder()
        LocalRunner(seed=0, trace=trace).run(
            make_sampling_conf(
                name="q", input_path="/t", predicate=predicate, sample_size=50,
                policy_name=policy, provider_name=provider,
            ),
            dfs.open_splits("/t"),
        )
        report = audit_events(trace.raw_events)
        assert report.ok, render_audit(report)
        assert report.evaluations_checked >= 1


@pytest.fixture(scope="module")
def multiwave_events(tmp_path_factory):
    """A sim trace with several INPUT_AVAILABLE waves, for mutation."""
    path = tmp_path_factory.mktemp("audit") / "base.jsonl"
    code, _ = run_cli(
        ["sample", "--scale", "40", "--k", "5000", "--policy", "LA",
         "--trace-out", str(path)]
    )
    assert code == 0
    events = load_trace(path)
    assert any(
        e["type"] == "provider_evaluation" and e["phase"] == "evaluate"
        and e["response"]["kind"] == "INPUT_AVAILABLE"
        for e in events
    )
    return events


def _checks(events) -> set[str]:
    return {v.check for v in audit_events(events).violations}


class TestAuditCatchesSeededViolations:
    def test_inflated_grab_detected(self, multiwave_events):
        events = copy.deepcopy(multiwave_events)
        for event in events:
            if (
                event["type"] == "provider_evaluation"
                and event["response"]["kind"] == "INPUT_AVAILABLE"
            ):
                event["response"]["splits"] = 10_000
                break
        assert "grab_limit" in _checks(events)

    def test_premature_end_of_input_detected(self, multiwave_events):
        events = copy.deepcopy(multiwave_events)
        for event in events:
            if (
                event["type"] == "provider_evaluation"
                and event["phase"] == "evaluate"
                and event["response"]["kind"] == "INPUT_AVAILABLE"
            ):
                event["response"] = {"kind": "END_OF_INPUT", "splits": 0}
                break
        assert "end_of_input" in _checks(events)

    def test_missing_terminal_event_detected(self, multiwave_events):
        events = copy.deepcopy(multiwave_events)
        for index, event in enumerate(events):
            if event["type"] == "map_finished":
                del events[index]
                break
        checks = _checks(events)
        assert "task_terminal" in checks
        # The dropped attempt's records also desync the job counters.
        assert "counter_consistency" in checks

    def test_work_threshold_violation_detected(self, multiwave_events):
        # Claim an evaluation happened with zero newly completed splits
        # while work was still in flight.
        events = copy.deepcopy(multiwave_events)
        seen = 0
        for event in events:
            if (
                event["type"] == "provider_evaluation"
                and event["phase"] == "evaluate"
            ):
                seen += 1
                if seen == 2:
                    # Rewind completion below the previous evaluation's
                    # baseline while work is still in flight.
                    event["progress"]["splits_completed"] = 0
                    event["progress"]["splits_pending"] = 3
                    assert "work_threshold" in _checks(events)
                    return
        pytest.fail("needed at least two evaluate-phase events")

    def test_mutated_trace_script_output_fails_audit(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "mutant.jsonl"
        subprocess.run(
            [sys.executable, "tests/data/make_mutated_trace.py", str(out)],
            check=True,
            cwd=Path(__file__).parent.parent.parent,
        )
        code, text = run_cli(["audit", str(out)])
        assert code == 1
        assert "end_of_input" in text


class TestReport:
    def test_markdown_report_is_byte_deterministic(self, tmp_path):
        path = _sim_trace(tmp_path, "LA")
        renders = []
        for _ in range(2):
            out_file = tmp_path / "r.md"
            code, _ = run_cli(
                ["report", str(path), "--out", str(out_file)]
            )
            assert code == 0
            renders.append(out_file.read_bytes())
        assert renders[0] == renders[1]

    def test_html_report_renders_and_escapes(self, tmp_path):
        path = _sim_trace(tmp_path, "LA")
        code, text = run_cli(["report", str(path), "--format", "html"])
        assert code == 0
        assert text.startswith("<!DOCTYPE html>")
        assert "<table>" in text

    def test_ha_vs_hadoop_diff_reproduces_splits_ordering(self, tmp_path):
        # Figure 5's core claim: incremental policies consume far fewer
        # splits than stock Hadoop for the same k.
        from repro.obs.analyze import analyze_trace, policy_summaries

        ha = _sim_trace(tmp_path, "HA", scale=40, k=5000)
        hadoop = _sim_trace(tmp_path, "Hadoop", scale=40, k=5000)
        ha_summary = policy_summaries(analyze_trace(load_trace(ha)))["HA"]
        hadoop_summary = policy_summaries(
            analyze_trace(load_trace(hadoop))
        )["Hadoop"]
        assert ha_summary.splits_consumed < hadoop_summary.splits_consumed

        code, text = run_cli(
            ["report", "--diff", str(ha), str(hadoop)]
        )
        assert code == 0
        assert "Diff:" in text

    def test_diff_requires_exactly_two_traces(self, tmp_path, capsys):
        path = _sim_trace(tmp_path, "LA")
        code, _ = run_cli(["report", "--diff", str(path)])
        assert code == 2
        assert "exactly 2" in capsys.readouterr().err


class TestProgress:
    def test_progress_leaves_stdout_identical(self):
        argv = ["sample", "--scale", "5", "--k", "2000", "--policy", "LA"]
        _, plain = run_cli(argv)
        err = io.StringIO()
        with redirect_stderr(err):
            _, with_progress = run_cli(argv + ["--progress"])
        assert plain == with_progress
        stderr = err.getvalue()
        assert "job_submitted" in stderr
        assert "provider[LA]" in stderr
        assert "job_succeeded" in stderr

    def test_progress_composes_with_trace_out(self, tmp_path):
        path = tmp_path / "t.jsonl"
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(
                ["sample", "--scale", "5", "--k", "2000",
                 "--trace-out", str(path), "--progress"]
            )
        assert code == 0
        assert path.exists()
        assert err.getvalue()  # reporter ran
        # The written trace is unaffected by the listener.
        assert audit_events(load_trace(path)).ok

    def test_reporter_throttles_high_frequency_events(self):
        from repro.obs.progress import ProgressReporter

        sink = io.StringIO()
        reporter = ProgressReporter(sink, every=10)
        for seq in range(30):
            reporter(
                {"v": 1, "seq": seq, "time": 0.0, "type": "map_finished",
                 "job_id": "j1", "task_id": f"m{seq}"}
            )
        lines = sink.getvalue().splitlines()
        assert len(lines) == 3  # every 10th of 30
        assert "x10" in lines[0] and "x30" in lines[2]
