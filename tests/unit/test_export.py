"""Unit tests for Prometheus exposition rendering, the strict parser,
and the background HTTP exporter."""

import json
import urllib.request
from pathlib import Path

import pytest

from repro.obs.export import (
    CONTENT_TYPE,
    ExpositionError,
    TelemetryExporter,
    parse_exposition,
    render_hub_prometheus,
    render_registry_prometheus,
    render_trace_prometheus,
    sanitize_metric_name,
)
from repro.obs.hub import TelemetryHub
from repro.obs.metrics import Histogram
from repro.obs.trace import TraceRecorder, load_trace

DATA = Path(__file__).resolve().parents[1] / "data"


def family_runs(text: str, family: str) -> int:
    """How many separate runs of lines the family's samples form."""
    runs, inside = 0, False
    for line in text.splitlines():
        name = line.split("{")[0].split(" ")[0]
        member = name in (family, f"{family}_count", f"{family}_sum")
        if member and not inside:
            runs += 1
        inside = member
    return runs


class TestSanitize:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("profile.scan.wall-s") == "profile_scan_wall_s"

    def test_leading_digit_is_replaced(self):
        assert sanitize_metric_name("9lives") == "_lives"

    def test_empty_name(self):
        assert sanitize_metric_name("") == "_"


class TestRegistryRendering:
    def registry_snapshot(self) -> dict:
        wall = Histogram("map_task.wall_s", (0.01, 0.02, 0.5))
        return {
            "batch.size": {"kind": "gauge", "value": 4096},
            "map_task.wall_s": {"kind": "histogram", "value": wall.snapshot()},
            "rows.scanned": {"kind": "counter", "value": 1234},
        }

    def test_counter_gets_total_suffix(self):
        text = render_registry_prometheus(self.registry_snapshot())
        samples = parse_exposition(text)
        assert samples["repro_rows_scanned_total"] == [({}, 1234.0)]

    def test_gauge_and_histogram_summary(self):
        text = render_registry_prometheus(self.registry_snapshot())
        samples = parse_exposition(text)
        assert samples["repro_batch_size"] == [({}, 4096.0)]
        assert samples["repro_map_task_wall_s_count"] == [({}, 3.0)]
        quantile_labels = [
            labels["quantile"] for labels, _ in samples["repro_map_task_wall_s"]
        ]
        assert quantile_labels == ["0.5", "0.95", "0.99"]

    def test_type_headers_emitted_once(self):
        text = render_registry_prometheus(self.registry_snapshot())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))

    def test_labels_are_escaped(self):
        text = render_registry_prometheus(
            {"x": {"kind": "gauge", "value": 1}},
            labels={"job": 'a"b\\c\nd'},
        )
        samples = parse_exposition(text)
        [(labels, value)] = samples["repro_x"]
        assert labels == {"job": 'a"b\\c\nd'}
        assert value == 1.0

    def test_falsy_zero_values_render(self):
        # A 0-valued counter/gauge is a real sample, never dropped.
        text = render_registry_prometheus(
            {
                "hits": {"kind": "counter", "value": 0},
                "util": {"kind": "gauge", "value": 0.0},
            }
        )
        samples = parse_exposition(text)
        assert samples["repro_hits_total"] == [({}, 0.0)]
        assert samples["repro_util"] == [({}, 0.0)]

    def test_none_gauge_renders_nan(self):
        text = render_registry_prometheus({"x": {"kind": "gauge", "value": None}})
        [(_, value)] = parse_exposition(text)["repro_x"]
        assert value != value  # NaN


class TestHubRendering:
    def hub_snapshot(self) -> dict:
        recorder = TraceRecorder()
        hub = TelemetryHub()
        hub.attach(recorder)
        for job_id in ("j1", "j2"):
            recorder.record(0.0, "job_submitted", job_id, name=job_id, splits=1)
            recorder.provider_evaluation(
                0.0, job_id=job_id, phase="initial", policy="LA", knobs={},
                progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
                splits=1,
            )
            recorder.record(1.0, "map_started", job_id, task_id="t")
            recorder.record(
                2.0, "map_finished", job_id, task_id="t", records=100, outputs=2
            )
        return hub.snapshot()

    def test_jobs_render_with_job_label(self):
        text = render_hub_prometheus(self.hub_snapshot())
        samples = parse_exposition(text)
        rows = {
            labels["job"]: value
            for labels, value in samples["repro_job_rows_total"]
        }
        assert rows == {"j1": 100.0, "j2": 100.0}

    def test_grab_to_grant_summary_for_concurrent_jobs(self):
        text = render_hub_prometheus(self.hub_snapshot())
        samples = parse_exposition(text)
        latency = samples["repro_job_grab_to_grant_seconds"]
        by_job: dict[str, set[str]] = {}
        for labels, _value in latency:
            by_job.setdefault(labels["job"], set()).add(labels["quantile"])
        assert by_job == {
            "j1": {"0.5", "0.95", "0.99"},
            "j2": {"0.5", "0.95", "0.99"},
        }
        # The summary carries real _count/_sum samples.
        for labels, value in samples["repro_job_grab_to_grant_seconds_count"]:
            assert value == 1.0
        for labels, value in samples["repro_job_grab_to_grant_seconds_sum"]:
            assert value > 0.0

    def test_whole_payload_parses(self):
        text = render_hub_prometheus(self.hub_snapshot())
        samples = parse_exposition(text)
        assert samples  # non-empty and no ExpositionError raised

    def test_each_family_is_one_group_across_jobs(self):
        text = render_hub_prometheus(self.hub_snapshot())
        for family in (
            "repro_job_rows_total",
            "repro_job_running_maps",
            "repro_job_grab_to_grant_seconds",
        ):
            assert family_runs(text, family) == 1, family


class TestTraceRendering:
    def test_one_type_line_per_family_across_snapshots(self):
        # Nine job snapshots share one family per metric.
        text = render_trace_prometheus(load_trace(DATA / "dispatch_trace.jsonl"))
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))
        assert family_runs(text, "repro_failed_map_attempts_total") == 1
        assert family_runs(text, "repro_map_records_per_task") == 1
        jobs = [labels["job"] for labels, _ in
                parse_exposition(text)["repro_records_processed_total"]]
        assert len(jobs) == len(set(jobs)) == 9


class TestParser:
    def test_rejects_bad_value(self):
        with pytest.raises(ExpositionError):
            parse_exposition("metric abc\n")

    def test_rejects_unterminated_labels(self):
        with pytest.raises(ExpositionError):
            parse_exposition('metric{a="b" 1\n')

    def test_rejects_invalid_name(self):
        with pytest.raises(ExpositionError):
            parse_exposition("1metric 5\n")

    def test_accepts_timestamps_and_comments(self):
        samples = parse_exposition("# HELP x y\n# TYPE x gauge\nx 1 1700000000\n")
        assert samples["x"] == [({}, 1.0)]

    def test_label_value_with_comma_and_quote(self):
        samples = parse_exposition('m{a="x,y",b="q\\"z"} 2\n')
        assert samples["m"] == [({"a": "x,y", "b": 'q"z'}, 2.0)]

    def test_rejects_repeated_type_line(self):
        with pytest.raises(ExpositionError, match="second TYPE"):
            parse_exposition("# TYPE x gauge\nx 1\n# TYPE x gauge\nx 2\n")

    def test_rejects_split_family(self):
        with pytest.raises(ExpositionError, match="resumes"):
            parse_exposition('x{j="1"} 1\ny 2\nx{j="2"} 3\n')

    def test_summary_count_and_sum_belong_to_their_family(self):
        text = (
            "# TYPE s summary\n"
            's{quantile="0.5"} 1\ns_count 2\ns_sum 3\n'
            "# TYPE t gauge\nt 4\n"
        )
        assert parse_exposition(text)["s_sum"] == [({}, 3.0)]
        with pytest.raises(ExpositionError, match="resumes"):
            parse_exposition(text + "s_count 5\n")


class TestExporter:
    def test_http_round_trip(self):
        recorder = TraceRecorder()
        hub = TelemetryHub()
        hub.attach(recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q", splits=1)
        with TelemetryExporter(hub, port=0) as exporter:
            base = f"http://127.0.0.1:{exporter.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                text = resp.read().decode()
            parse_exposition(text)
            with urllib.request.urlopen(f"{base}/telemetry.json", timeout=5) as resp:
                snapshot = json.loads(resp.read().decode())
            assert "j1" in snapshot["jobs"]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=5)
        assert exporter.port is None  # stopped and released
