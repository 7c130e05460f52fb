"""Unit tests for trace analytics (run-model reconstruction)."""

from repro.obs.analyze import analyze_trace, policy_summaries

_SEQ = 0


def _event(type_: str, *, time: float = 0.0, **fields) -> dict:
    global _SEQ
    event = {"v": 1, "seq": _SEQ, "time": time, "type": type_, **fields}
    _SEQ += 1
    return event


def _evaluation(
    *, time, phase, kind, splits, job_id="j1", policy="LA",
    progress=None, cluster=None,
):
    return _event(
        "provider_evaluation",
        time=time,
        job_id=job_id,
        phase=phase,
        policy=policy,
        knobs={"work_threshold_pct": 50.0, "grab_limit": "0.2 * TS",
               "evaluation_interval": 5.0},
        progress=progress,
        cluster=cluster or {"total_map_slots": 40, "available_map_slots": 40,
                            "running_map_tasks": 0, "queued_map_tasks": 0},
        response={"kind": kind, "splits": splits},
    )


def _sim_job_events() -> list[dict]:
    """A small simulated-cluster job: 2 waves, 3 attempts, 1 retry."""
    return [
        _event("job_submitted", time=0.0, job_id="j1",
               detail={"name": "sample", "dynamic": True, "splits": 2,
                       "input_complete": False, "total_splits": 4,
                       "sample_size": 100}),
        _evaluation(time=0.0, phase="initial", kind="INPUT_AVAILABLE", splits=2),
        _event("job_activated", time=1.0, job_id="j1"),
        _event("map_started", time=1.0, job_id="j1", task_id="m1",
               detail={"attempt": 1, "node": "n1", "local": True}),
        _event("map_started", time=1.0, job_id="j1", task_id="m2",
               detail={"attempt": 1, "node": "n2", "local": False}),
        _event("map_finished", time=3.0, job_id="j1", task_id="m1",
               detail={"records": 50, "outputs": 5}),
        _event("map_failed", time=3.5, job_id="j1", task_id="m2",
               detail={"attempt": 1}),
        _event("map_retried", time=3.5, job_id="j1", task_id="m2r",
               detail={"attempt": 2}),
        _event("map_started", time=4.0, job_id="j1", task_id="m2r",
               detail={"attempt": 2, "node": "n2", "local": False}),
        _event("map_finished", time=6.0, job_id="j1", task_id="m2r",
               detail={"records": 50, "outputs": 5}),
        _evaluation(
            time=6.0, phase="evaluate", kind="INPUT_AVAILABLE", splits=2,
            progress={"job_id": "j1", "total_splits_known": 4,
                      "splits_added": 2, "splits_completed": 2,
                      "splits_pending": 0, "records_processed": 100,
                      "outputs_produced": 10, "records_pending": 0},
        ),
        _event("input_added", time=6.0, job_id="j1", detail={"splits": 2}),
        _event("map_started", time=6.5, job_id="j1", task_id="m3",
               detail={"attempt": 1, "node": "n1", "local": True}),
        _event("map_started", time=6.5, job_id="j1", task_id="m4",
               detail={"attempt": 1, "node": "n3", "local": True}),
        _event("map_finished", time=8.5, job_id="j1", task_id="m3",
               detail={"records": 60, "outputs": 45}),
        _event("map_finished", time=8.5, job_id="j1", task_id="m4",
               detail={"records": 60, "outputs": 45}),
        _evaluation(
            time=10.0, phase="evaluate", kind="END_OF_INPUT", splits=0,
            progress={"job_id": "j1", "total_splits_known": 4,
                      "splits_added": 4, "splits_completed": 4,
                      "splits_pending": 0, "records_processed": 220,
                      "outputs_produced": 100, "records_pending": 0},
        ),
        _event("input_complete", time=10.0, job_id="j1"),
        _event("reduce_started", time=10.5, job_id="j1"),
        _event("reduce_finished", time=11.5, job_id="j1", detail={"outputs": 100}),
        _event("job_succeeded", time=12.0, job_id="j1"),
        _event("metrics_snapshot", time=12.0, scope="job", job_id="j1",
               metrics={"records_processed": {"kind": "counter", "value": 220}}),
    ]


class TestAnalyzeSimTrace:
    def setup_method(self):
        self.model = analyze_trace(_sim_job_events())
        self.job = self.model.jobs["j1"]

    def test_job_identity_and_state(self):
        job = self.job
        assert job.name == "sample"
        assert job.policy == "LA"
        assert job.sample_size == 100
        assert job.total_splits == 4
        assert job.state == "succeeded"
        assert job.response_time == 12.0

    def test_wave_structure_follows_provider_responses(self):
        waves = self.job.waves
        assert [(w.source, w.splits) for w in waves] == [
            ("initial", 2), ("input_added", 2),
        ]
        assert self.job.splits_added == 4

    def test_attempts_and_retry_linkage(self):
        job = self.job
        assert len(job.attempts) == 5
        assert job.attempts["m2"].outcome == "failed"
        assert job.attempts["m2"].retried_as == "m2r"
        assert job.attempts["m2r"].outcome == "finished"
        assert job.failed_attempts == 1
        assert job.splits_completed == 4  # finished attempts (incl. retry)
        assert job.records_processed == 50 + 50 + 60 + 60

    def test_utilization_series_and_mean(self):
        series = self.job.utilization()
        # Two tasks start at t=1; one running after m1 finishes at t=3...
        assert series[0] == (1.0, 2)
        assert series[-1] == (8.5, 0)
        mean = self.job.mean_running_maps()
        assert 0 < mean <= 2

    def test_end_of_input_time(self):
        assert self.job.end_of_input_time == 10.0

    def test_total_map_slots_lifted_from_cluster_status(self):
        assert self.model.total_map_slots == 40

    def test_policy_summaries(self):
        summaries = policy_summaries(self.model)
        assert list(summaries) == ["LA"]
        summary = summaries["LA"]
        assert summary.jobs == 1
        assert summary.time_to_k == 12.0
        assert summary.splits_consumed == 4.0
        assert summary.splits_added == 4.0
        assert summary.evaluations == 2.0  # periodic only, not initial
        assert summary.increments == 2.0
        assert summary.failed_attempts == 1.0
        assert summary.utilization_pct is not None


class TestAnalyzeLocalTrace:
    """LocalRunner traces: no task lifecycle, times all 0.0."""

    def _events(self):
        return [
            _event("job_submitted", job_id="local_1",
                   detail={"name": "q", "dynamic": True, "splits": 4,
                           "input_complete": False, "total_splits": 4,
                           "sample_size": 5}),
            _evaluation(time=0.0, phase="initial", kind="INPUT_AVAILABLE",
                        splits=2, job_id="local_1"),
            _event("scan_span", job_id="local_1", task_id="t1", split_id="s0",
                   mode="batch", batch_size=1024, rows=100, outputs=3,
                   elapsed_s=0.1, rows_per_sec=1000.0),
            _event("scan_span", job_id="local_1", task_id="t2", split_id="s1",
                   mode="batch", batch_size=1024, rows=100, outputs=2,
                   elapsed_s=0.1, rows_per_sec=1000.0),
            _evaluation(
                time=0.0, phase="evaluate", kind="END_OF_INPUT", splits=0,
                job_id="local_1",
                progress={"job_id": "local", "total_splits_known": 4,
                          "splits_added": 2, "splits_completed": 2,
                          "splits_pending": 0, "records_processed": 200,
                          "outputs_produced": 5, "records_pending": 0},
            ),
            _event("job_succeeded", job_id="local_1"),
        ]

    def test_split_accounting_falls_back_to_scan_spans(self):
        model = analyze_trace(self._events())
        job = model.jobs["local_1"]
        assert job.splits_completed == 2
        assert job.records_processed == 200
        assert job.utilization() == []
        assert job.mean_running_maps() is None

    def test_waves_come_from_provider_not_submission(self):
        # LocalRunner records the *whole* input on job_submitted but only
        # grabs provider-granted batches; waves must follow the grants.
        model = analyze_trace(self._events())
        job = model.jobs["local_1"]
        assert job.submitted_splits == 4
        assert [w.splits for w in job.waves] == [2]


class TestStaticJob:
    def test_static_job_gets_one_wave_from_submission(self):
        events = [
            _event("job_submitted", job_id="s1",
                   detail={"name": "static", "dynamic": False, "splits": 6,
                           "input_complete": True, "total_splits": 6}),
            _event("job_succeeded", time=5.0, job_id="s1"),
        ]
        job = analyze_trace(events).jobs["s1"]
        assert [(w.source, w.splits) for w in job.waves] == [("initial", 6)]
        assert job.policy is None

    def test_empty_trace(self):
        model = analyze_trace([])
        assert model.jobs == {}
        assert model.events == 0
        assert policy_summaries(model) == {}
