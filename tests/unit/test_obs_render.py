"""Unit tests for the trace renderers (``repro trace`` / ``repro metrics``)."""

import pytest

from repro.obs.render import (
    SPARK_TICKS,
    _one_line,
    format_duration,
    percentile_row,
    progress_bar,
    render_metrics,
    render_timeline,
    sparkline,
)
from repro.obs.trace import LIFECYCLE_EVENT_TYPES


def _event(type_: str, *, seq: int = 0, time: float = 1.0, **fields) -> dict:
    return {"v": 1, "seq": seq, "time": time, "type": type_, **fields}


class TestOneLine:
    @pytest.mark.parametrize("kind", LIFECYCLE_EVENT_TYPES)
    def test_every_lifecycle_event_renders(self, kind):
        line = _one_line(_event(kind, job_id="job_1"))
        assert kind in line

    def test_lifecycle_with_task_and_detail(self):
        line = _one_line(
            _event(
                "map_finished",
                job_id="job_1",
                task_id="job_1_m_000001",
                detail={"records": 100, "outputs": 3},
            )
        )
        assert "job_1_m_000001" in line
        assert "records=100" in line
        assert "outputs=3" in line

    def test_provider_evaluation_line(self):
        line = _one_line(
            _event(
                "provider_evaluation",
                job_id="job_1",
                phase="evaluate",
                policy="LA",
                knobs={"work_threshold_pct": 50.0},
                progress={"splits_completed": 4, "splits_added": 8},
                cluster={"available_map_slots": 10, "total_map_slots": 40},
                response={"kind": "INPUT_AVAILABLE", "splits": 6},
            )
        )
        assert "policy=LA" in line
        assert "phase=evaluate" in line
        assert "done=4/8" in line
        assert "slots=10/40" in line
        assert "INPUT_AVAILABLE" in line
        assert "splits=6" in line

    def test_provider_evaluation_initial_has_no_progress(self):
        line = _one_line(
            _event(
                "provider_evaluation",
                job_id="job_1",
                phase="initial",
                policy=None,
                progress=None,
                cluster=None,
                response={"kind": "END_OF_INPUT", "splits": 0},
            )
        )
        assert "policy=-" in line
        assert "done=-" in line
        assert "slots=?/?" in line

    def _span(self, **overrides) -> dict:
        span = dict(
            task_id="t1", split_id="s1", mode="batch", batch_size=1024,
            rows=500, outputs=5, elapsed_s=0.5, rows_per_sec=1000.0,
        )
        span.update(overrides)
        return _event("scan_span", **span)

    def test_scan_span_with_rate(self):
        line = _one_line(self._span())
        assert "rows=500" in line
        assert "(1,000 rows/s)" in line

    def test_scan_span_zero_rate_still_shown(self):
        # Regression: ``if rps`` hid a legitimate 0.0 rows/s (zero rows
        # over positive time); only a None rate may be suppressed.
        line = _one_line(self._span(rows=0, rows_per_sec=0.0))
        assert "(0 rows/s)" in line

    def test_scan_span_none_rate_suppressed(self):
        line = _one_line(self._span(elapsed_s=0.0, rows_per_sec=None))
        assert "rows/s" not in line

    def test_metrics_snapshot_line(self):
        line = _one_line(
            _event("metrics_snapshot", scope="job", metrics={"a": 1, "b": 2})
        )
        assert "scope=job" in line
        assert "(2 metrics)" in line

    def test_sweep_events(self):
        started = _one_line(_event("sweep_started", points=12))
        assert "points=12" in started
        cached = _one_line(
            _event("sweep_point", index=3, kind="single_user", params={}, cached=True)
        )
        assert "#3" in cached and "[cached]" in cached
        computed = _one_line(
            _event("sweep_point", index=4, kind="single_user", params={}, cached=False)
        )
        assert "[computed]" in computed
        finished = _one_line(_event("sweep_finished", points=12))
        assert "points=12" in finished


class TestRenderTimeline:
    def test_empty_trace(self):
        assert render_timeline([]) == ""

    def test_groups_by_job_with_run_scope_first(self):
        events = [
            _event("job_submitted", seq=1, job_id="job_1"),
            _event("sweep_started", seq=0, points=1),
            _event("job_succeeded", seq=2, time=9.0, job_id="job_1"),
        ]
        text = render_timeline(events)
        assert text.index("== (run)") < text.index("== job_1")
        assert "(2 events)" in text  # job_1 section

    def test_filter_selects_single_job(self):
        events = [
            _event("job_submitted", seq=0, job_id="job_1"),
            _event("job_submitted", seq=1, job_id="job_2"),
        ]
        text = render_timeline(events, job_id="job_2")
        assert "job_2" in text
        assert "job_1" not in text

    def test_events_ordered_by_time_then_seq(self):
        events = [
            _event("job_succeeded", seq=5, time=2.0, job_id="j"),
            _event("job_submitted", seq=1, time=1.0, job_id="j"),
        ]
        text = render_timeline(events)
        assert text.index("job_submitted") < text.index("job_succeeded")


class TestRenderMetrics:
    def test_no_snapshots(self):
        assert render_metrics([]) == "no metrics_snapshot events in trace"
        assert (
            render_metrics([_event("job_submitted", job_id="j")])
            == "no metrics_snapshot events in trace"
        )

    def test_empty_metrics_dict(self):
        text = render_metrics([_event("metrics_snapshot", scope="run", metrics={})])
        assert "(empty)" in text

    def test_tables_sorted_and_formatted(self):
        snapshot = _event(
            "metrics_snapshot",
            scope="job",
            job_id="job_1",
            metrics={
                "zeta": {"kind": "gauge", "value": 1.5},
                "alpha": {"kind": "counter", "value": 7},
            },
        )
        text = render_metrics([snapshot])
        assert "job [job_1]" in text
        assert text.index("alpha") < text.index("zeta")

    def test_histogram_with_quantiles(self):
        snapshot = _event(
            "metrics_snapshot",
            scope="job",
            metrics={
                "lat": {
                    "kind": "histogram",
                    "value": {
                        "count": 3, "total": 6.0, "mean": 2.0,
                        "min": 1.0, "max": 3.0,
                        "p50": 2.1, "p95": 2.9, "p99": 2.9,
                    },
                }
            },
        )
        text = render_metrics([snapshot])
        assert "p50=2.1" in text
        assert "p95=2.9" in text

    def test_histogram_without_quantile_keys_stays_renderable(self):
        # Traces recorded before the log-bucket histogram carry no
        # p50/p95/p99 keys; rendering must not KeyError.
        snapshot = _event(
            "metrics_snapshot",
            scope="job",
            metrics={
                "lat": {
                    "kind": "histogram",
                    "value": {
                        "count": 2, "total": 3.0, "mean": 1.5,
                        "min": 1.0, "max": 2.0,
                    },
                }
            },
        )
        text = render_metrics([snapshot])
        assert "count=2" in text
        assert "p50" not in text

    def test_empty_histogram_renders_count_zero(self):
        snapshot = _event(
            "metrics_snapshot",
            scope="job",
            metrics={
                "lat": {
                    "kind": "histogram",
                    "value": {
                        "count": 0, "total": 0.0, "mean": None,
                        "min": None, "max": None,
                        "p50": None, "p95": None, "p99": None,
                    },
                }
            },
        )
        assert "count=0" in render_metrics([snapshot])


class TestSparkline:
    def test_empty_is_blank_of_width(self):
        assert sparkline([], width=8) == " " * 8

    def test_flat_series_is_lowest_tick(self):
        # All-zero rates are real data, not absence: lowest tick, not blank.
        line = sparkline([0.0, 0.0, 0.0], width=8)
        assert line.strip() == SPARK_TICKS[0] * 3

    def test_monotone_series_is_monotone_ticks(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0], width=8).strip()
        assert list(line) == sorted(line)
        assert line[-1] == SPARK_TICKS[-1]

    def test_downsamples_to_width(self):
        line = sparkline(range(100), width=10)
        assert len(line) == 10

    def test_short_series_right_aligned(self):
        line = sparkline([1.0, 5.0], width=10)
        assert len(line) == 10
        assert line.startswith(" ")


class TestProgressBar:
    def test_halfway(self):
        assert progress_bar(5, 10, width=10) == "[#####.....]  50%"

    def test_zero_done_is_zero_percent_not_unknown(self):
        assert progress_bar(0, 10, width=10) == "[..........]   0%"

    def test_unknown_total(self):
        assert progress_bar(3, None, width=4) == "[????]   ?%"
        assert progress_bar(3, 0, width=4) == "[????]   ?%"

    def test_clamps_overshoot(self):
        assert progress_bar(15, 10, width=10) == "[##########] 100%"


class TestFormatDuration:
    def test_none_is_dash(self):
        assert format_duration(None) == "-"

    def test_zero_is_a_number_not_dash(self):
        assert format_duration(0.0) == "0µs"

    def test_tiers(self):
        assert format_duration(5e-5) == "50µs"
        assert format_duration(0.0215) == "21.5ms"
        assert format_duration(5.5) == "5.50s"
        assert format_duration(180.0) == "3.0m"


class TestPercentileHelpers:
    def test_empty_stats_is_dash(self):
        assert percentile_row(None) == "-"
        assert percentile_row({"count": 0}) == "-"

    def test_zero_quantile_prints_as_number(self):
        row = percentile_row({"count": 3, "p50": 0.0, "p95": 0.5, "p99": None})
        assert row == "0µs/500.0ms/-"
