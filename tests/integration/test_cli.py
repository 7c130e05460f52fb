"""Tests for the ``python -m repro`` command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "run"],
            ["slo", "check", "--spec", "slo.json", "--bench", "run.json"],
            ["slo", "check", "--spec", "slo.json", "--history-dir", "h", "t.jsonl"],
            ["sample", "--profile"],
            ["query", "SELECT * FROM lineitem LIMIT 1", "--profile-dir", "d"],
            ["sweep", "--figure", "4", "--profile"],
        ],
    )
    def test_retired_bench_and_profile_surfaces_exit_2(self, argv):
        # Benchmarks run through `python -m benchmarks.query` only, and
        # runs are profiled with `python -m cProfile -m repro ...`.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_list_arguments_parse(self):
        args = build_parser().parse_args(
            ["figure5", "--scales", "5,10", "--skews", "0", "--seeds", "0,1"]
        )
        assert args.scales == (5, 10)
        assert args.skews == (0,)
        assert args.seeds == (0, 1)

    def test_fraction_list_parses(self):
        args = build_parser().parse_args(["figure7", "--fractions", "0.2,0.8"])
        assert args.fractions == (0.2, 0.8)


class TestCommands:
    def test_tables(self):
        code, text = run_cli(["tables"])
        assert code == 0
        assert "Table I — Policies" in text
        assert "max(0.5 * TS, AS)" in text
        assert "600,000,000" in text
        assert "l_quantity = 51" in text

    def test_figure4(self):
        code, text = run_cli(["figure4", "--scale", "5", "--top", "3"])
        assert code == 0
        assert "Figure 4" in text
        assert "z=2" in text

    def test_figure5_reduced_grid(self):
        code, text = run_cli(
            ["figure5", "--scales", "5", "--skews", "0", "--seeds", "0"]
        )
        assert code == 0
        assert "Figure 5 — response time (s), z=0" in text
        assert "| 5x" in text

    def test_sample(self):
        code, text = run_cli(
            ["sample", "--scale", "5", "--policy", "HA", "--seed", "1"]
        )
        assert code == 0
        assert "Sampling job result" in text
        assert "| sample size" in text
        assert "10000" in text

    def test_query_select(self):
        code, text = run_cli(
            [
                "query",
                "SELECT ORDERKEY FROM lineitem WHERE l_quantity = 51 LIMIT 3",
                "--rows", "8000",
                "--max-print", "2",
            ]
        )
        assert code == 0
        assert "l_orderkey" in text
        assert "... 1 more rows" in text
        assert "3 rows" in text

    def test_query_set_statement(self):
        code, text = run_cli(["query", "SET dynamic.job.policy = C", "--rows", "4000"])
        assert code == 0
        assert "SET dynamic.job.policy=C" in text

    def test_policies_writes_file(self, tmp_path):
        out_path = tmp_path / "policy.xml"
        code, text = run_cli(["policies", "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        content = out_path.read_text()
        assert "<policies>" in content
        assert "grabLimit" in content


class TestScanFlags:
    SQL = "SELECT ORDERKEY FROM lineitem WHERE l_quantity = 51 LIMIT 3"

    def test_query_identical_across_scan_modes_and_workers(self):
        outputs = set()
        for extra in (
            ["--scan-mode", "interpreted"],
            ["--scan-mode", "compiled"],
            ["--scan-mode", "batch"],
            ["--scan-mode", "batch", "--map-workers", "4"],
            ["--layout", "columnar"],
        ):
            code, text = run_cli(["query", self.SQL, "--rows", "8000"] + extra)
            assert code == 0
            outputs.add(text)
        assert len(outputs) == 1  # byte-identical output in every configuration

    def test_unknown_scan_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", self.SQL, "--scan-mode", "turbo"])


class TestTracing:
    def test_sample_trace_out_then_render(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        code, _ = run_cli(
            ["sample", "--scale", "5", "--seed", "0",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        assert trace_path.exists()

        code, text = run_cli(["trace", str(trace_path)])
        assert code == 0
        assert "job_submitted" in text
        assert "provider_evaluation" in text
        assert "job_succeeded" in text

        code, text = run_cli(["metrics", str(trace_path)])
        assert code == 0
        assert "records_processed" in text

    def test_trace_out_does_not_change_sample_output(self, tmp_path):
        argv = ["sample", "--scale", "5", "--seed", "0"]
        _, bare = run_cli(argv)
        _, traced = run_cli(argv + ["--trace-out", str(tmp_path / "t.jsonl")])
        assert bare == traced

    def test_query_trace_out_emits_scan_spans(self, tmp_path):
        trace_path = tmp_path / "q.jsonl"
        code, _ = run_cli(
            ["query", "SELECT ORDERKEY FROM lineitem WHERE l_quantity = 51 LIMIT 3",
             "--rows", "8000", "--trace-out", str(trace_path)]
        )
        assert code == 0
        content = trace_path.read_text()
        assert '"type": "scan_span"' in content
        assert '"type": "provider_evaluation"' in content

    def test_sweep_trace_out_records_points(self, tmp_path):
        trace_path = tmp_path / "s.jsonl"
        code, _ = run_cli(
            ["sweep", "--figure", "4", "--jobs", "1", "--quiet", "--no-cache",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        content = trace_path.read_text()
        assert '"type": "sweep_started"' in content
        assert '"type": "sweep_finished"' in content

    def test_trace_filter_by_job(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        run_cli(["sample", "--scale", "5", "--trace-out", str(trace_path)])
        code, text = run_cli(["trace", str(trace_path), "--job", "job_000001"])
        assert code == 0
        assert "job_submitted" in text

    def test_trace_unknown_job_id_fails(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        run_cli(["sample", "--scale", "5", "--trace-out", str(trace_path)])
        code, text = run_cli(["trace", str(trace_path), "--job", "nonexistent"])
        assert code != 0
        assert text == ""
        err = capsys.readouterr().err
        assert "nonexistent" in err
        # The error names the job ids that *are* present.
        assert "job_000001" in err

    def test_trace_command_rejects_garbage(self, tmp_path):
        from repro.obs.trace import TraceSchemaError

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "an event"}\n')
        with pytest.raises(TraceSchemaError):
            run_cli(["trace", str(bad)])


class TestCacheDir:
    def test_sweep_cache_dir_flag_honored(self, tmp_path):
        cache_dir = tmp_path / "cache"
        code, _ = run_cli(
            ["sweep", "--figure", "4", "--cache-dir", str(cache_dir),
             "--jobs", "1", "--quiet"]
        )
        assert code == 0
        assert cache_dir.is_dir()
        assert any(cache_dir.iterdir())

    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "from_env"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code, _ = run_cli(["sweep", "--figure", "4", "--jobs", "1", "--quiet"])
        assert code == 0
        assert cache_dir.is_dir()
        assert any(cache_dir.iterdir())

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code, _ = run_cli(
            ["sweep", "--figure", "4", "--cache-dir", str(explicit),
             "--jobs", "1", "--quiet"]
        )
        assert code == 0
        assert explicit.is_dir()
        assert not (tmp_path / "ignored").exists()


QUERY_SQL = "SELECT ORDERKEY FROM lineitem WHERE l_quantity = 51 LIMIT 5"


class TestDatasetCommands:
    def test_build_then_info(self, tmp_path):
        path = tmp_path / "lineitem.rcs"
        code, text = run_cli(
            ["dataset", "build", "--out", str(path),
             "--rows", "6000", "--partitions", "4"]
        )
        assert code == 0
        assert "6,000 rows in 4 partitions" in text
        assert path.stat().st_size > 1_000_000

        code, text = run_cli(["dataset", "info", str(path)])
        assert code == 0
        assert "eager bytes on open" in text
        assert "l_orderkey" in text
        assert "int64" in text
        assert "l_quantity=51" in text

    def test_info_rejects_non_rcs_file(self, tmp_path):
        from repro.errors import MmapStoreError

        bad = tmp_path / "bad.rcs"
        bad.write_bytes(b"definitely not an RCS1 file, long enough to map")
        with pytest.raises(MmapStoreError, match="bad magic"):
            run_cli(["dataset", "info", str(bad)])


class TestQueryLayouts:
    def test_unknown_layout_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", QUERY_SQL, "--layout", "parquet"])

    def test_unknown_executor_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", QUERY_SQL, "--map-executor", "gpu"])

    def test_all_layouts_print_identical_results(self):
        argv = ["query", QUERY_SQL, "--rows", "6000"]
        outputs = {}
        for layout in ("row", "columnar", "mmap"):
            code, text = run_cli(argv + ["--layout", layout])
            assert code == 0
            outputs[layout] = text
        assert outputs["row"] == outputs["columnar"] == outputs["mmap"]

    def test_process_executor_prints_identical_results(self):
        argv = ["query", QUERY_SQL, "--rows", "6000", "--layout", "mmap"]
        code, serial = run_cli(argv)
        assert code == 0
        code, parallel = run_cli(
            argv + ["--map-executor", "process", "--map-workers", "2"]
        )
        assert code == 0
        assert parallel == serial

    def test_query_existing_dataset_file(self, tmp_path):
        path = tmp_path / "lineitem.rcs"
        code, _ = run_cli(
            ["dataset", "build", "--out", str(path),
             "--rows", "6000", "--partitions", "4"]
        )
        assert code == 0
        code, text = run_cli(
            ["query", QUERY_SQL, "--data", str(path),
             "--map-executor", "process", "--map-workers", "2"]
        )
        assert code == 0
        assert "l_orderkey" in text
        assert "4/4 partitions" in text


class TestTelemetryCLI:
    def test_metrics_format_prometheus_renders_trace(self, tmp_path):
        from repro.obs.export import parse_exposition

        trace_path = tmp_path / "run.jsonl"
        code, _ = run_cli(
            ["sample", "--scale", "5", "--seed", "0",
             "--trace-out", str(trace_path)]
        )
        assert code == 0
        code, text = run_cli(["metrics", str(trace_path), "--format", "prometheus"])
        assert code == 0
        samples = parse_exposition(text)  # strict: raises on malformation
        assert "repro_records_processed_total" in samples
        labels, value = samples["repro_records_processed_total"][0]
        assert labels["scope"] == "job"
        assert value > 0

    def test_metrics_port_does_not_change_sample_output(self, capsys):
        argv = ["sample", "--scale", "5", "--seed", "0"]
        _, bare = run_cli(argv)
        capsys.readouterr()
        code, observed = run_cli(argv + ["--metrics-port", "0"])
        assert code == 0
        assert observed == bare
        # The endpoint announcement goes to stderr, never stdout.
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "/metrics" in err

    def test_top_renders_one_frame_from_live_exporter(self):
        from repro.obs import TelemetryHub, TraceRecorder
        from repro.obs.export import TelemetryExporter

        recorder = TraceRecorder()
        hub = TelemetryHub()
        hub.attach(recorder)
        recorder.record(0.0, "job_submitted", "j1", name="livejob", splits=2)
        with TelemetryExporter(hub, port=0) as exporter:
            code, text = run_cli(
                ["top", "--port", str(exporter.port),
                 "--iterations", "1", "--no-clear"]
            )
        assert code == 0
        assert "livejob" in text
        assert "events" in text

    def test_top_requires_an_endpoint(self, capsys):
        code, _ = run_cli(["top"])
        assert code == 2
        assert "--port" in capsys.readouterr().err

    def test_top_unreachable_endpoint_fails_cleanly(self):
        code, text = run_cli(
            ["top", "--url", "http://127.0.0.1:9/telemetry.json",
             "--iterations", "1", "--interval", "0.01"]
        )
        assert code == 1
        assert "telemetry endpoint" in text
