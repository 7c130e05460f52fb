"""Unit tests for the TelemetryHub: event folding, multiplexing, worker
deltas, bounded series, and detaching on leaving its context."""

import pytest

from repro.obs.hub import SERIES_POINTS, TelemetryHub
from repro.obs.trace import TraceRecorder
from repro.scan.proc import WorkerDelta


class FakeClock:
    """Deterministic wall clock the hub can be driven with."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_hub(**kwargs) -> tuple[TelemetryHub, FakeClock]:
    clock = FakeClock()
    return TelemetryHub(clock=clock, **kwargs), clock


def feed(hub: TelemetryHub, recorder: TraceRecorder) -> None:
    hub.attach(recorder)


def publish_delta(recorder: TraceRecorder, **fields) -> None:
    """Publish one worker delta, as the LocalRunner does."""
    recorder.publish("worker_delta", 0.0, **vars(WorkerDelta(**fields)))


class TestAttachment:
    def test_leaving_the_context_detaches_the_hub(self):
        recorder = TraceRecorder()
        hub, _ = make_hub()
        with hub:
            hub.attach(recorder)
            recorder.record(0.0, "job_submitted", "j1", name="q")
            assert hub.events_seen == 1
        recorder.record(0.0, "job_succeeded", "j1")
        assert hub.events_seen == 1  # no longer subscribed
        assert not recorder.listening


class TestEventFolding:
    def test_job_lifecycle_sim_substrate(self):
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.record(
            0.0, "job_submitted", "j1",
            name="q", splits=2, total_splits=8, sample_size=100,
        )
        recorder.provider_evaluation(
            0.0, job_id="j1", phase="initial", policy="LA", knobs={},
            progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
            splits=2,
        )
        recorder.record(1.5, "map_started", "j1", task_id="t1")
        recorder.record(2.0, "map_started", "j1", task_id="t2")
        clock.advance(1.0)
        recorder.record(
            4.0, "map_finished", "j1", task_id="t1", records=500, outputs=5
        )
        recorder.record(
            5.0, "map_finished", "j1", task_id="t2", records=300, outputs=3
        )
        recorder.record(6.0, "job_succeeded", "j1")

        snapshot = hub.snapshot()
        job = snapshot["jobs"]["j1"]
        assert job["name"] == "q"
        assert job["state"] == "succeeded"
        assert job["total_splits"] == 8
        assert job["sample_size"] == 100
        assert job["splits_added"] == 2
        assert job["splits_completed"] == 2
        assert job["running_maps"] == 0
        assert job["rows_total"] == 800
        assert job["outputs_total"] == 8
        # Grab-to-grant uses simulated event time: grants at t=0,
        # map_started at 1.5 and 2.0.
        grab = job["grab_to_grant"]
        assert grab["count"] == 2
        assert grab["p50"] is not None
        # Rows series recorded cumulative progression.
        values = [v for _t, v in job["rows_series"]]
        assert values[-1] == 800.0

    def test_local_runner_substrate_uses_scan_spans(self):
        # LocalRunner: no map_started events, everything at time 0.0;
        # scan_span both consumes the grant (wall delta) and drives rows.
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "local_1", name="q", splits=1)
        recorder.provider_evaluation(
            0.0, job_id="local_1", phase="initial", policy="LA", knobs={},
            progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
            splits=1,
        )
        clock.advance(0.25)
        recorder.scan_span(
            0.0, job_id="local_1", task_id="local_1_m_000001",
            split_id="/d:0", mode="batch",
            rows=1000, outputs=10, elapsed_s=0.2,
        )
        recorder.record(0.0, "job_succeeded", "local_1")
        job = hub.snapshot()["jobs"]["local_1"]
        assert job["rows_total"] == 1000
        assert job["splits_completed"] == 1
        grab = job["grab_to_grant"]
        assert grab["count"] == 1
        # Wall-clock fallback: the 0.25 s between grant and span receipt.
        assert 0.2 <= grab["p50"] <= 0.3

    def test_sim_scan_spans_do_not_double_count(self):
        # On the sim substrate both scan_span and map_finished fire per
        # task; once a map_started was seen, spans must not add rows.
        recorder = TraceRecorder()
        hub, _clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q", splits=1)
        recorder.provider_evaluation(
            0.0, job_id="j1", phase="initial", policy="LA", knobs={},
            progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
            splits=1,
        )
        recorder.record(1.0, "map_started", "j1", task_id="t1")
        recorder.scan_span(
            2.0, job_id="j1", task_id="t1", split_id="/d:0", mode="batch",
            rows=700, outputs=7, elapsed_s=0.1,
        )
        recorder.record(2.0, "map_finished", "j1", task_id="t1", records=700, outputs=7)
        job = hub.snapshot()["jobs"]["j1"]
        assert job["rows_total"] == 700
        assert job["splits_completed"] == 1
        assert job["grab_to_grant"]["count"] == 1

    def test_concurrent_jobs_multiplex_by_job_id(self):
        recorder = TraceRecorder()
        hub, _clock = make_hub()
        feed(hub, recorder)
        for job_id in ("j1", "j2"):
            recorder.record(0.0, "job_submitted", job_id, name=job_id, splits=1)
            recorder.provider_evaluation(
                0.0, job_id=job_id, phase="initial", policy="LA", knobs={},
                progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
                splits=1,
            )
        recorder.record(1.0, "map_started", "j1", task_id="a")
        recorder.record(3.0, "map_started", "j2", task_id="b")
        recorder.record(2.0, "map_finished", "j1", task_id="a", records=10, outputs=1)
        jobs = hub.snapshot()["jobs"]
        assert set(jobs) == {"j1", "j2"}
        assert jobs["j1"]["rows_total"] == 10
        assert jobs["j2"]["rows_total"] == 0
        assert jobs["j2"]["running_maps"] == 1

    def test_map_failed_and_retry_grant_safety(self):
        recorder = TraceRecorder()
        hub, _clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q", splits=1)
        recorder.provider_evaluation(
            0.0, job_id="j1", phase="initial", policy="LA", knobs={},
            progress=None, cluster=None, response_kind="INPUT_AVAILABLE",
            splits=1,
        )
        recorder.record(1.0, "map_started", "j1", task_id="t1")
        recorder.record(2.0, "map_failed", "j1", task_id="t1")
        # The retry consumes no grant marker (the queue is empty): it
        # must be skipped, never drive counts negative or raise.
        recorder.record(3.0, "map_started", "j1", task_id="t1")
        recorder.record(4.0, "map_finished", "j1", task_id="t1", records=5, outputs=1)
        job = hub.snapshot()["jobs"]["j1"]
        assert job["running_maps"] == 0
        assert job["grab_to_grant"]["count"] == 1
        assert job["splits_completed"] == 1

    def test_ci_series_from_provider_evaluations(self):
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q", splits=1)
        for half in (40.0, 10.0, 2.0):
            clock.advance(1.0)
            recorder.provider_evaluation(
                0.0, job_id="j1", phase="evaluate", policy="LA", knobs={},
                progress=None, cluster=None, response_kind="NO_INPUT_AVAILABLE",
                splits=0,
                ci={"estimate": 1000.0, "half_width": half, "met": half <= 2.0},
            )
        job = hub.snapshot()["jobs"]["j1"]
        assert job["evaluations"] == 3
        assert [v for _t, v in job["ci_series"]] == [40.0, 10.0, 2.0]
        assert job["ci"]["met"] is True

    def test_cluster_utilization_series(self):
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.publish(
            "cluster_status", 1.0, total_map_slots=40, available_map_slots=30
        )
        clock.advance(1.0)
        recorder.publish(
            "cluster_status", 2.0, total_map_slots=40, available_map_slots=40
        )
        slots = hub.snapshot()["slots"]
        assert slots["total"] == 40
        assert slots["available"] == 40
        assert slots["utilization"] == 0.0
        assert [v for _t, v in slots["series"]] == [0.25, 0.0]

    def test_sweep_progress(self):
        recorder = TraceRecorder()
        hub, _clock = make_hub()
        feed(hub, recorder)
        recorder.sweep_started(points=4, jobs=4)
        recorder.sweep_point(index=0, kind="cell", params={}, cached=True)
        recorder.sweep_point(index=1, kind="cell", params={}, cached=False)
        sweep = hub.snapshot()["sweep"]
        assert sweep == {"points": 4, "done": 2, "cached": 1}


class TestSeries:
    def test_a_series_keeps_only_the_newest_points(self):
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "local_1", name="q")
        spans = SERIES_POINTS + 3
        for index in range(spans):
            clock.advance(1.0)
            recorder.scan_span(
                0.0, job_id="local_1", task_id=f"local_1_m_{index:06d}",
                split_id=f"/d:{index}", mode="batch",
                rows=1, outputs=0, elapsed_s=0.001,
            )
        series = hub.snapshot()["jobs"]["local_1"]["rows_series"]
        # One point per span; the three oldest fell off the front.
        assert len(series) == SERIES_POINTS
        assert series[0] == (clock.now - (SERIES_POINTS - 1), 4.0)
        assert series[-1] == (clock.now, float(spans))


class TestWorkerTelemetry:
    def test_worker_deltas_are_cumulative_and_idempotent(self):
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        for rows in (100, 300, 300, 200):  # duplicate + reorder
            clock.advance(0.1)
            publish_delta(
                recorder, job_id="j1", partition=0, rows_scanned=rows,
                hits=1, chunk_rows=100, wall_s=0.05,
            )
        job = hub.snapshot()["jobs"]["j1"]
        # max-so-far per partition: the stale 200 cannot shrink the view.
        assert job["rows_total"] == 300
        assert job["worker"]["live_rows"] == 300
        assert job["worker"]["deltas"] == 4
        # Every delta's chunk feeds the rate sketch: 100 rows / 0.05 s.
        assert job["worker"]["chunk_rate"]["count"] == 4
        assert job["worker"]["chunk_rate"]["p50"] == pytest.approx(2000.0, rel=0.05)

    def test_worker_result_retires_live_entry(self):
        """A gathered worker result reaches the hub as its split's
        ``scan_span``, which retires the live entry and counts its rows
        once."""
        recorder = TraceRecorder()
        hub, clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q", splits=1)
        publish_delta(
            recorder, job_id="j1", partition=0, rows_scanned=500,
            hits=2, chunk_rows=500, wall_s=0.1,
        )
        assert hub.snapshot()["jobs"]["j1"]["worker"]["live_rows"] == 500
        clock.advance(0.1)
        recorder.scan_span(
            0.0, job_id="j1", task_id="j1_m_000001", split_id="s0",
            mode="batch", rows=1000, outputs=2, elapsed_s=0.15,
        )
        job = hub.snapshot()["jobs"]["j1"]
        assert job["worker"]["live_rows"] == 0
        assert job["worker"]["live_tasks"] == 0
        assert job["rows_total"] == 1000

    def test_delta_after_job_completion_is_ignored(self):
        recorder = TraceRecorder()
        hub, _clock = make_hub()
        feed(hub, recorder)
        recorder.record(0.0, "job_submitted", "j1", name="q")
        recorder.record(1.0, "job_succeeded", "j1")
        publish_delta(
            recorder, job_id="j1", partition=3, rows_scanned=500,
            hits=0, chunk_rows=500, wall_s=0.1,
        )
        job = hub.snapshot()["jobs"]["j1"]
        assert job["rows_total"] == 0
        assert job["worker"]["live_rows"] == 0

