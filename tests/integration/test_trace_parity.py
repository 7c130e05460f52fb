"""Tracing is pure read-side: attaching a recorder changes no output bytes.

These tests pin the acceptance criteria of the observability layer:
results are byte-identical with tracing on and off (both substrates and
through the sweep engine), every Input Provider
invocation produces exactly one provider_evaluation event, and the
checked-in golden traces stay schema-valid and regenerate byte for byte.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.engine.failures import FailFirstAttempts
from repro.engine.runtime import LocalRunner
from repro.obs import TraceRecorder, load_trace
from repro.obs.trace import validate_trace

GOLDEN_TRACE = Path(__file__).parent.parent / "data" / "golden_trace.jsonl"
DISPATCH_TRACE = GOLDEN_TRACE.parent / "dispatch_trace.jsonl"
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def profiled():
    pred = predicate_for_skew(1)
    return pred, build_profiled_dataset(
        dataset_spec_for_scale(5), {pred: 1.0}, seed=0
    )


@pytest.fixture()
def materialized():
    pred = predicate_for_skew(0)
    data = build_materialized_dataset(
        dataset_spec_for_scale(0.0005, num_partitions=16), {pred: 0.0},
        seed=0, selectivity=0.01,
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


def run_simulated(pred, data, trace=None):
    cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
    cluster.load_dataset("/d", data)
    conf = make_sampling_conf(
        name="q", input_path="/d", predicate=pred, sample_size=10_000,
        policy_name="LA",
    )
    return cluster.run_job(conf)


class TestSimulatedSubstrate:
    def test_results_identical_with_and_without_trace(self, profiled, tmp_path):
        pred, data = profiled
        bare = run_simulated(pred, data)
        with TraceRecorder(tmp_path / "run.jsonl") as trace:
            traced = run_simulated(pred, data, trace=trace)
        assert pickle.dumps(traced) == pickle.dumps(bare)

    def test_one_evaluation_event_per_provider_invocation(self, profiled, tmp_path):
        pred, data = profiled
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            result = run_simulated(pred, data, trace=trace)
        events = load_trace(path)
        evaluations = [e for e in events if e["type"] == "provider_evaluation"]
        initial = [e for e in evaluations if e["phase"] == "initial"]
        periodic = [e for e in evaluations if e["phase"] == "evaluate"]
        assert len(initial) == 1
        assert len(periodic) == result.evaluations
        for event in evaluations:
            assert event["policy"] == "LA"
            assert event["response"]["kind"] in (
                "END_OF_INPUT", "INPUT_AVAILABLE", "NO_INPUT_AVAILABLE",
            )
            assert event["knobs"]["grab_limit"]
        # The periodic events carry the full JobProgress the provider saw.
        assert all(e["progress"]["job_id"] == result.job_id for e in periodic)

    def test_lifecycle_and_metrics_events_present(self, profiled, tmp_path):
        pred, data = profiled
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            result = run_simulated(pred, data, trace=trace)
        events = load_trace(path)
        types = [e["type"] for e in events]
        for expected in (
            "job_submitted", "job_activated", "map_started", "map_finished",
            "input_added", "input_complete", "reduce_started",
            "reduce_finished", "job_succeeded", "metrics_snapshot",
        ):
            assert expected in types, f"missing {expected}"
        snapshot = next(e for e in events if e["type"] == "metrics_snapshot")
        assert snapshot["scope"] == "job"
        assert (
            snapshot["metrics"]["records_processed"]["value"]
            == result.records_processed
        )

    def test_retries_appear_in_trace(self, profiled, tmp_path):
        pred, data = profiled
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            cluster = SimulatedCluster.paper_cluster(
                seed=0, trace=trace,
                failure_injector=FailFirstAttempts(attempts_to_fail=1),
            )
            cluster.load_dataset("/d", data)
            conf = make_sampling_conf(
                name="q", input_path="/d", predicate=pred, sample_size=10_000,
                policy_name="Hadoop",
            )
            result = cluster.run_job(conf)
        events = load_trace(path)
        failed = [e for e in events if e["type"] == "map_failed"]
        retried = [e for e in events if e["type"] == "map_retried"]
        assert len(failed) == result.failed_map_attempts
        assert len(retried) == len(failed)  # every failure got a retry


class TestLocalRunnerSubstrate:
    def test_results_identical_with_and_without_trace(self, materialized, tmp_path):
        pred, splits = materialized
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=25,
            policy_name="LA",
        )
        bare = LocalRunner(seed=0).run(conf, splits)
        with TraceRecorder(tmp_path / "run.jsonl") as trace:
            traced = LocalRunner(seed=0, trace=trace).run(conf, splits)
        assert pickle.dumps(traced) == pickle.dumps(bare)

    def test_scan_spans_cover_every_map_task(self, materialized, tmp_path):
        pred, splits = materialized
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=25,
            policy_name="LA",
        )
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            result = LocalRunner(seed=0, trace=trace).run(conf, splits)
        events = load_trace(path)
        spans = [e for e in events if e["type"] == "scan_span"]
        assert len(spans) == result.splits_processed
        assert sum(e["rows"] for e in spans) == result.records_processed
        assert len({e["task_id"] for e in spans}) == len(spans)

    def test_parallel_map_trace_matches_serial(self, materialized, tmp_path):
        # Spans are emitted post-gather in submission order, so the trace
        # (minus wall-clock timings) is identical however the pool
        # interleaves the work.
        pred, splits = materialized
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=25,
            policy_name="LA",
        )

        def span_keys(workers, path):
            with TraceRecorder(path) as trace:
                LocalRunner(seed=0, map_workers=workers, trace=trace).run(conf, splits)
            return [
                (e["task_id"], e["split_id"], e["rows"], e["outputs"])
                for e in load_trace(path)
                if e["type"] == "scan_span"
            ]

        serial = span_keys(1, tmp_path / "serial.jsonl")
        parallel = span_keys(4, tmp_path / "parallel.jsonl")
        assert serial == parallel


def assert_pinned(snapshot: dict, expected: dict) -> None:
    assert snapshot == expected
    # repr also pins key order and int/float types.
    assert repr(snapshot) == repr(expected)


class TestSnapshotPins:
    """Exact pins for the snapshots the golden traces do not hold: a
    LocalRunner job's, which carries ``splits_pruned``, and a cluster's
    after its monitor has taken samples."""

    def test_local_runner_job_snapshot(self, tmp_path):
        pred = predicate_for_skew(2)
        data = build_materialized_dataset(
            dataset_spec_for_scale(8_000 / 6_000_000, num_partitions=16),
            {pred: 2.0}, seed=0, selectivity=0.005, layout="mmap",
            mmap_path=str(tmp_path / "lineitem.rcs"), stats=True,
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", data)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=5,
            policy_name="C", stats_mode="prune",
        )
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            with LocalRunner(seed=0, trace=trace) as runner:
                result = runner.run(conf, dfs.open_splits("/t"))
        expected = {
            "failed_map_attempts": {"kind": "counter", "value": 0},
            "input_increments": {"kind": "counter", "value": 1},
            "map_records_per_task": {"kind": "histogram", "value": {
                "count": 4, "total": 1589.0, "min": 89, "max": 500,
                "mean": 397.25, "p50": 473.15125896148027,
                "p95": 473.15125896148027, "p99": 473.15125896148027,
            }},
            "outputs_produced": {"kind": "counter", "value": 12},
            "provider_evaluations": {"kind": "counter", "value": 1},
            "records_pending": {"kind": "gauge", "value": 0},
            "records_processed": {"kind": "counter", "value": 1589},
            "splits_pruned": {"kind": "counter", "value": 10},
        }
        [event] = [e for e in load_trace(path) if e["type"] == "metrics_snapshot"]
        assert_pinned(event["metrics"], expected)
        assert_pinned(result.metrics_snapshot, expected)

    def test_cluster_snapshot_after_monitor_samples(self, profiled, tmp_path):
        pred, data = profiled
        path = tmp_path / "run.jsonl"
        with TraceRecorder(path) as trace:
            cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
            cluster.load_dataset("/d", data)
            cluster.start_metrics()
            cluster.run_job(make_sampling_conf(
                name="q", input_path="/d", predicate=pred, sample_size=10_000,
                policy_name="LA",
            ))
            cluster.snapshot_cluster_metrics()
        low_bucket = 0.10592537251772889
        expected = {
            "cpu_utilization": {"kind": "histogram", "value": {
                "count": 2, "total": 0.30000000000000004, "min": 0.1,
                "max": 0.2, "mean": 0.15000000000000002, "p50": low_bucket,
                "p95": 0.2, "p99": 0.2,
            }},
            "disk_read_bps": {"kind": "histogram", "value": {
                "count": 2, "total": 14400000.0, "min": 4800000.0,
                "max": 9600000.0, "mean": 7200000.0, "p50": 4800000.0,
                "p95": 9440608.762859225, "p99": 9440608.762859225,
            }},
            "local_map_tasks": {"kind": "counter", "value": 13},
            "remote_map_tasks": {"kind": "counter", "value": 22},
            "slot_occupancy": {"kind": "histogram", "value": {
                "count": 2, "total": 0.30000000000000004, "min": 0.1,
                "max": 0.2, "mean": 0.15000000000000002, "p50": low_bucket,
                "p95": 0.2, "p99": 0.2,
            }},
        }
        [event] = [
            e for e in load_trace(path)
            if e["type"] == "metrics_snapshot" and e["scope"] == "cluster"
        ]
        assert_pinned(event["metrics"], expected)
        assert_pinned(cluster.metrics.snapshot(), expected)


class TestSweepTracing:
    def test_sweep_results_identical_with_trace(self, tmp_path):
        from repro.experiments.sweep import figure5_points, run_sweep

        points = figure5_points(
            scales=(5,), skews=(0,), policies=("Hadoop",), seeds=(0,),
            sample_size=10_000,
        )
        bare = run_sweep(points, jobs=1)
        path = tmp_path / "sweep.jsonl"
        with TraceRecorder(path) as trace:
            traced = run_sweep(points, jobs=1, trace=trace)
        assert pickle.dumps(traced) == pickle.dumps(bare)
        events = load_trace(path)
        types = [e["type"] for e in events]
        assert types[0] == "sweep_started"
        assert types[-1] == "sweep_finished"
        assert types.count("sweep_point") == len(points)


class TestGoldenTrace:
    def test_golden_trace_is_schema_valid(self):
        events = load_trace(GOLDEN_TRACE)
        assert validate_trace(events) == len(events)
        types = {e["type"] for e in events}
        # The golden run covers the full event surface the CI schema
        # check cares about.
        for expected in (
            "job_submitted", "provider_evaluation", "map_started",
            "map_failed", "map_retried", "map_finished", "reduce_started",
            "reduce_finished", "job_succeeded", "metrics_snapshot",
        ):
            assert expected in types, f"golden trace missing {expected}"

    def test_golden_trace_regenerates_byte_identically(self, tmp_path):
        # The committed file is a byte-level pin of the simulated event
        # stream: any change to what the engine or a provider records
        # must come with a deliberate regeneration of the file. A fresh
        # interpreter, because task ids come from a process-wide counter.
        out = tmp_path / "golden.jsonl"
        subprocess.run(
            [sys.executable, str(GOLDEN_TRACE.parent / "make_golden_trace.py"), str(out)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.read_bytes() == GOLDEN_TRACE.read_bytes()


class TestGoldenDispatchTrace:
    """The multi-job dispatch pin: FIFO priorities and Fair delay scheduling."""

    def test_dispatch_trace_is_schema_valid(self):
        events = load_trace(DISPATCH_TRACE)
        assert validate_trace(events) == len(events)
        submitted = [e["detail"]["name"] for e in events if e["type"] == "job_submitted"]
        assert len(submitted) == 9
        local = [e["detail"]["local"] for e in events if e["type"] == "map_started"]
        assert True in local and False in local

    def test_dispatch_trace_regenerates_byte_identically(self, tmp_path):
        out = tmp_path / "dispatch.jsonl"
        subprocess.run(
            [sys.executable, str(DISPATCH_TRACE.parent / "make_dispatch_trace.py"), str(out)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert out.read_bytes() == DISPATCH_TRACE.read_bytes()
