"""Unit tests for the trace recorder, schema validation, and rendering."""

import io
import json

import pytest

from repro import SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.core import paper_policies
from repro.core.protocol import ClusterStatus, JobProgress
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.engine.failures import FailFirstAttempts
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    TraceSchemaError,
    analyze_trace,
    load_trace,
    render_metrics,
    render_timeline,
    validate_trace_event,
)
from repro.obs.trace import (
    EVENT_FIELDS,
    LIFECYCLE_EVENT_TYPES,
    policy_knobs,
    validate_trace,
)


def progress(job_id="job_000001"):
    return JobProgress(
        job_id=job_id,
        total_splits_known=40,
        splits_added=8,
        splits_completed=4,
        splits_pending=4,
        records_processed=10_000,
        outputs_produced=5,
        records_pending=10_000,
    )


def cluster():
    return ClusterStatus(
        total_map_slots=40,
        available_map_slots=32,
        running_map_tasks=8,
        queued_map_tasks=0,
    )


def run_traced(*, policy="LA", failure_injector=None, scale=5):
    """One simulated sampling job with a recorder attached."""
    pred = predicate_for_skew(0)
    data = build_profiled_dataset(dataset_spec_for_scale(scale), {pred: 0.0}, seed=0)
    trace = TraceRecorder()
    cluster = SimulatedCluster(
        paper_topology(), trace=trace, failure_injector=failure_injector, seed=0
    )
    cluster.load_dataset("/d", data)
    conf = make_sampling_conf(
        name="q", input_path="/d", predicate=pred, sample_size=10_000,
        policy_name=policy,
    )
    result = cluster.run_job(conf)
    return result, trace.raw_events


def lifecycle(events, job_id, kind=None):
    """One job's lifecycle events, in recording order."""
    return [
        event
        for event in events
        if event["type"] in LIFECYCLE_EVENT_TYPES
        and event["job_id"] == job_id
        and (kind is None or event["type"] == kind)
    ]


class TestRecorderCore:
    def test_record_logs_each_lifecycle_event_once(self):
        recorder = TraceRecorder()
        recorder.record(1.0, "job_submitted", "job_000001", name="q")
        assert len(recorder.raw_events) == 1
        event = recorder.raw_events[0]
        assert event["type"] == "job_submitted"
        assert event["job_id"] == "job_000001"
        assert event["detail"] == {"name": "q"}

    def test_events_carry_version_and_increasing_seq(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "job_submitted", "j")
        recorder.record(1.0, "job_activated", "j")
        seqs = [event["seq"] for event in recorder.raw_events]
        assert seqs == [0, 1]
        assert all(e["v"] == TRACE_SCHEMA_VERSION for e in recorder.raw_events)

    def test_stream_receives_jsonl(self):
        stream = io.StringIO()
        recorder = TraceRecorder(stream=stream)
        recorder.record(2.5, "job_succeeded", "j")
        recorder.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["type"] == "job_succeeded"
        assert event["time"] == 2.5

    def test_path_and_stream_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            TraceRecorder(tmp_path / "t.jsonl", stream=io.StringIO())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as recorder:
            recorder.record(0.0, "job_submitted", "j")
            recorder.metrics_snapshot(9.0, scope="job", job_id="j", metrics={})
        events = load_trace(path)
        assert [e["type"] for e in events] == ["job_submitted", "metrics_snapshot"]


class TestLifecycleLog:
    """The JobTracker records a simulated job's whole lifecycle."""

    def test_lifecycle_sequence_for_a_dynamic_job(self):
        result, events = run_traced(policy="C")
        kinds = [event["type"] for event in lifecycle(events, result.job_id)]
        assert kinds[0] == "job_submitted"
        assert kinds[-1] == "job_succeeded"
        # Ordering constraints.
        assert kinds.index("job_activated") < kinds.index("map_started")
        assert kinds.index("input_complete") < kinds.index("reduce_started")
        assert kinds.index("reduce_started") < kinds.index("reduce_finished")
        # A conservative dynamic job grows through several increments.
        assert kinds.count("input_added") >= 2

    def test_map_counts_match_result(self):
        result, events = run_traced()
        started = lifecycle(events, result.job_id, "map_started")
        finished = lifecycle(events, result.job_id, "map_finished")
        assert len(finished) == result.splits_processed
        assert len(started) == len(finished)

    def test_event_timestamps_monotone(self):
        _result, events = run_traced()
        times = [event["time"] for event in events]
        assert times == sorted(times)

    def test_increment_sizes_respect_grab_limit(self):
        result, events = run_traced(policy="C")
        added = lifecycle(events, result.job_id, "input_added")
        assert added
        # C on the 40-slot cluster can never add more than ceil(0.1*40)=4.
        for event in added:
            assert 1 <= event["detail"]["splits"] <= 4

    def test_failures_recorded(self):
        result, events = run_traced(
            failure_injector=FailFirstAttempts(attempts_to_fail=1)
        )
        failed = lifecycle(events, result.job_id, "map_failed")
        assert len(failed) == result.failed_map_attempts > 0
        # Failed attempts carry their attempt number.
        assert all(event["detail"]["attempt"] == 1 for event in failed)

    def test_concurrency_timeline_shape(self):
        result, events = run_traced(policy="Hadoop")
        timeline = analyze_trace(events).jobs[result.job_id].utilization()
        peak = max(count for _time, count in timeline)
        assert peak == 40  # the full cluster, one wave
        assert timeline[-1][1] == 0  # all maps drained at the end

    def test_detail_fields(self):
        result, events = run_traced()
        submitted = lifecycle(events, result.job_id, "job_submitted")[0]
        assert submitted["detail"]["dynamic"] is True
        assert submitted["detail"]["name"] == "q"
        started = lifecycle(events, result.job_id, "map_started")[0]
        assert started["detail"]["local"] in (True, False)
        assert started["task_id"] is not None

    def test_no_recorder_attached_is_silent(self):
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)
        cluster = SimulatedCluster(paper_topology(), seed=0)
        cluster.load_dataset("/d", data)
        conf = make_sampling_conf(
            name="q", input_path="/d", predicate=pred, sample_size=100,
            policy_name="HA",
        )
        result = cluster.run_job(conf)
        assert cluster.trace is None
        assert result.outputs_produced == 100


class TestTypedEvents:
    def test_provider_evaluation_shape(self):
        recorder = TraceRecorder()
        policy = paper_policies().get("LA")
        recorder.provider_evaluation(
            4.0,
            job_id="job_000001",
            phase="evaluate",
            policy=policy.name,
            knobs=policy_knobs(policy),
            progress=progress(),
            cluster=cluster(),
            response_kind="INPUT_AVAILABLE",
            splits=3,
        )
        event = recorder.raw_events[0]
        validate_trace_event(event)
        assert event["policy"] == "LA"
        assert event["knobs"]["grab_limit"] == policy.grab_limit.source
        assert event["progress"]["records_processed"] == 10_000
        assert event["cluster"]["available_map_slots"] == 32
        assert event["response"] == {
            "kind": "INPUT_AVAILABLE",
            "splits": 3,
            "pruned": 0,
        }

    def test_initial_phase_allows_null_progress(self):
        recorder = TraceRecorder()
        recorder.provider_evaluation(
            0.0,
            job_id="j",
            phase="initial",
            policy="Hadoop",
            knobs=None,
            progress=None,
            cluster=cluster(),
            response_kind="END_OF_INPUT",
            splits=40,
        )
        validate_trace_event(recorder.raw_events[0])
        assert recorder.raw_events[0]["progress"] is None

    def test_scan_span_derives_throughput(self):
        recorder = TraceRecorder()
        recorder.scan_span(
            1.0, task_id="t", split_id="s", mode="batch",
            rows=1000, outputs=10, elapsed_s=0.5,
        )
        event = recorder.raw_events[0]
        validate_trace_event(event)
        assert event["rows_per_sec"] == pytest.approx(2000.0)

    def test_scan_span_of_an_older_trace_still_validates(self):
        # Traces written before the scan engine had one path carry the
        # batch size and an ``interpreted`` or ``compiled`` mode.
        recorder = TraceRecorder()
        recorder.scan_span(
            1.0, task_id="t", split_id="s", mode="row",
            rows=1000, outputs=10, elapsed_s=0.5,
        )
        event = dict(recorder.raw_events[0], mode="interpreted", batch_size=4096)
        validate_trace_event(event)

    def test_sweep_events(self):
        recorder = TraceRecorder()
        recorder.sweep_started(points=2, jobs=1)
        recorder.sweep_point(index=0, kind="figure5", params={"scale": 5}, cached=False)
        recorder.sweep_finished(points=2)
        assert validate_trace(recorder.raw_events) == 3


class TestSchemaValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_trace_event({"v": TRACE_SCHEMA_VERSION, "seq": 0, "time": 0.0, "type": "nope"})

    def test_missing_required_field_rejected(self):
        event = {"v": TRACE_SCHEMA_VERSION, "seq": 0, "time": 0.0, "type": "map_started"}
        with pytest.raises(TraceSchemaError):
            validate_trace_event(event)  # no job_id

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_trace_event({"v": 99, "seq": 0, "time": 0.0, "type": "job_submitted", "job_id": "j"})

    def test_non_monotonic_seq_rejected(self):
        a = {"v": TRACE_SCHEMA_VERSION, "seq": 1, "time": 0.0, "type": "job_submitted", "job_id": "j"}
        b = {"v": TRACE_SCHEMA_VERSION, "seq": 1, "time": 1.0, "type": "job_activated", "job_id": "j"}
        with pytest.raises(TraceSchemaError):
            validate_trace([a, b])

    def test_every_declared_type_is_coverable(self):
        # Guard against EVENT_FIELDS drifting out of sync with the
        # lifecycle kinds the JobTracker actually records.
        for kind in ("job_submitted", "map_retried", "job_killed"):
            assert kind in EVENT_FIELDS

    def test_invalid_json_line_reported_with_location(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"v": 1, "seq": 0, "time": 0.0, "type": "job_submitted", "job_id": "j"}\nnot json\n')
        with pytest.raises(TraceSchemaError):
            load_trace(path)


class TestRendering:
    def _recorded(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "job_submitted", "job_000001", name="q")
        recorder.record(4.0, "job_activated", "job_000001")
        recorder.provider_evaluation(
            8.0, job_id="job_000001", phase="evaluate", policy="LA",
            knobs=None, progress=progress(), cluster=cluster(),
            response_kind="NO_INPUT_AVAILABLE", splits=0,
        )
        recorder.metrics_snapshot(
            9.0, scope="job", job_id="job_000001",
            metrics={"records_processed": {"kind": "counter", "value": 10}},
        )
        return recorder

    def test_timeline_groups_by_job(self):
        text = render_timeline(self._recorded().raw_events)
        assert "job_000001" in text
        assert "job_submitted" in text
        assert "NO_INPUT_AVAILABLE" in text

    def test_timeline_filters_by_job(self):
        recorder = self._recorded()
        recorder.record(10.0, "job_submitted", "job_000002")
        text = render_timeline(recorder.raw_events, job_id="job_000002")
        assert "job_000002" in text
        assert "job_000001" not in text

    def test_metrics_table_lists_values(self):
        text = render_metrics(self._recorded().raw_events)
        assert "records_processed" in text
        assert "10" in text


class TestListenerIsolation:
    """A broken listener must never kill the traced job (regression:
    listener exceptions used to propagate out of ``record``)."""

    def test_raising_listener_is_detached_not_propagated(self, capsys):
        recorder = TraceRecorder()
        seen = []

        def broken(event):
            raise RuntimeError("listener bug")

        recorder.add_listener(broken)
        recorder.add_listener(seen.append)
        recorder.record(0.0, "job_submitted", "j1")  # must not raise
        err = capsys.readouterr().err
        assert "listener" in err and "RuntimeError" in err

        # Exactly one stderr notice: the broken listener is detached and
        # never re-entered on subsequent events.
        recorder.record(1.0, "job_succeeded", "j1")
        assert capsys.readouterr().err == ""
        assert [e["type"] for e in seen] == ["job_submitted", "job_succeeded"]
        assert len(recorder.raw_events) == 2

    def test_healthy_listeners_survive_a_broken_sibling(self):
        recorder = TraceRecorder()
        seen = []
        recorder.add_listener(lambda event: (_ for _ in ()).throw(ValueError()))
        recorder.add_listener(seen.append)
        recorder.record(0.0, "job_submitted", "j1")
        assert len(seen) == 1

    def test_remove_listener_is_idempotent(self):
        recorder = TraceRecorder()
        listener = lambda event: None  # noqa: E731
        recorder.add_listener(listener)
        recorder.remove_listener(listener)
        recorder.remove_listener(listener)  # second remove: no error
        recorder.record(0.0, "job_submitted", "j1")


class TestPublish:
    """Listener-only events reach the listeners and nothing else: no
    ``seq``, no ``raw_events`` entry, no file line."""

    def test_listeners_receive_what_the_log_never_sees(self):
        stream = io.StringIO()
        recorder = TraceRecorder(stream=stream)
        seen = []
        assert not recorder.listening
        recorder.add_listener(seen.append)
        assert recorder.listening
        recorder.record(0.0, "job_submitted", "j1")
        recorder.publish(
            "cluster_status", 1.5, total_map_slots=40, available_map_slots=8
        )
        recorder.record(2.0, "job_succeeded", "j1")
        recorder.close()
        assert seen[1] == {
            "time": 1.5,
            "type": "cluster_status",
            "total_map_slots": 40,
            "available_map_slots": 8,
        }
        assert [e["type"] for e in seen] == [
            "job_submitted", "cluster_status", "job_succeeded",
        ]
        logged = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert logged == recorder.raw_events
        assert [e["type"] for e in logged] == ["job_submitted", "job_succeeded"]
        assert [e["seq"] for e in logged] == [0, 1]
        recorder.remove_listener(seen.append)
        assert not recorder.listening

    def test_raising_listener_is_detached_after_one_notice(self, capsys):
        recorder = TraceRecorder()
        seen = []

        def broken(event):
            raise RuntimeError("listener bug")

        recorder.add_listener(broken)
        recorder.add_listener(seen.append)
        recorder.publish("worker_delta", 0.0, job_id="j1", rows_scanned=10)
        err = capsys.readouterr().err
        assert err.count("RuntimeError") == 1
        recorder.publish("worker_delta", 0.0, job_id="j1", rows_scanned=20)
        assert capsys.readouterr().err == ""
        assert [e["rows_scanned"] for e in seen] == [10, 20]
        assert recorder.raw_events == []
