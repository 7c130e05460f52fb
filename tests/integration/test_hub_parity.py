"""The telemetry hub is pure read-side: attaching it changes no output.

Same acceptance shape as ``test_trace_parity.py``, one layer up: a job
run with a hub attached to its recorder (lifecycle events, worker deltas
and cluster samples all flowing to it) must produce a pickle-identical
``JobResult`` to a bare run — on both substrates and under both map
executors. For the process executor this additionally pins the chunked
worker scan (a listener is attached, so workers send deltas) against
the batch-sized scan (no listener), i.e. chunking-independence of the
batch matcher. The hub's per-job split counts must agree with the
results it watched.
"""

import pickle

import pytest

from repro import LocalRunner, SimulatedCluster, make_sampling_conf, make_scan_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.obs import TelemetryHub, TraceRecorder


@pytest.fixture()
def profiled():
    pred = predicate_for_skew(1)
    return pred, build_profiled_dataset(dataset_spec_for_scale(5), {pred: 1.0}, seed=0)


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


@pytest.fixture(scope="module")
def mmap_splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("mmapds")
    pred = predicate_for_skew(0)
    data = build_materialized_dataset(
        dataset_spec_for_scale(0.002, num_partitions=16), {pred: 0.0},
        seed=0, selectivity=0.01,
        layout="mmap", mmap_path=str(root / "lineitem.rcs"),
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


class TestSimulatedSubstrate:
    def test_results_identical_with_hub(self, profiled):
        pred, data = profiled

        def run(with_hub):
            conf = make_sampling_conf(
                name="q", input_path="/d", predicate=pred, sample_size=10_000,
                policy_name="LA",
            )
            if not with_hub:
                cluster = SimulatedCluster.paper_cluster(seed=0)
                cluster.load_dataset("/d", data)
                return cluster.run_job(conf), None
            trace = TraceRecorder()
            with TelemetryHub() as hub:
                hub.attach(trace)
                cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
                cluster.load_dataset("/d", data)
                return cluster.run_job(conf), hub.snapshot()

        bare, _ = run(with_hub=False)
        observed, snapshot = run(with_hub=True)
        assert pickle.dumps(observed) == pickle.dumps(bare)
        # The parity is not vacuous: the hub really watched the job.
        job = snapshot["jobs"][observed.job_id]
        assert job["state"] == "succeeded"
        assert job["rows_total"] == observed.records_processed
        assert job["grab_to_grant"]["count"] > 0
        assert snapshot["slots"]["total"] == 40


class TestLocalRunnerSubstrate:
    def test_results_identical_with_hub(self, materialized):
        pred, splits = materialized
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=25,
            policy_name="LA",
        )
        bare = LocalRunner(seed=0).run(conf, splits)
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            observed = LocalRunner(seed=0, trace=trace).run(conf, splits)
            snapshot = hub.snapshot()
        assert pickle.dumps(observed) == pickle.dumps(bare)
        job = snapshot["jobs"][observed.job_id]
        assert job["rows_total"] == observed.records_processed
        assert job["splits_completed"] == observed.splits_processed


class TestSplitsAdded:
    """The hub's ``splits_added`` counts the splits the job was given: a
    static job's whole input, a dynamic job's initial grab plus every
    later grant. Every granted split here runs, so it equals the
    result's ``splits_processed`` on both substrates."""

    @staticmethod
    def _conf(pred, path, policy):
        if policy is None:
            return make_scan_conf(name="q", input_path=path, predicate=pred)
        return make_sampling_conf(
            name="q", input_path=path, predicate=pred, sample_size=25,
            policy_name=policy,
        )

    @pytest.mark.parametrize("policy", [None, "C"])
    def test_local_runner(self, materialized, policy):
        pred, splits = materialized
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            result = LocalRunner(seed=0, trace=trace).run(
                self._conf(pred, "/t", policy), splits
            )
            job = hub.snapshot()["jobs"][result.job_id]
        if policy is not None:
            # Part of the input: the LocalRunner's job_submitted event
            # counts all of it, which splits_added must not include.
            assert result.splits_processed < len(splits)
        assert job["splits_added"] == result.splits_processed

    @pytest.mark.parametrize("policy", [None, "C"])
    def test_simulated_cluster(self, profiled, policy):
        pred, data = profiled
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
            cluster.load_dataset("/d", data)
            result = cluster.run_job(self._conf(pred, "/d", policy))
            job = hub.snapshot()["jobs"][result.job_id]
        assert job["splits_added"] == result.splits_processed


class TestProcessExecutor:
    @pytest.mark.parametrize("policy", [None, "LA"])
    def test_chunked_worker_scan_matches_single_call(
        self, mmap_splits, chunk_rows, policy
    ):
        """Hub attached -> workers scan in telemetry chunks; no listener
        -> batch-sized chunks, no deltas. Output must be byte-identical."""
        pred, splits = mmap_splits
        chunk_rows(500)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=40,
            policy_name=policy,
        )
        with LocalRunner(seed=7, map_executor="process", map_workers=2) as runner:
            bare = runner.run(conf, splits)
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            with LocalRunner(
                seed=7, map_executor="process", map_workers=2, trace=trace
            ) as runner:
                observed = runner.run(conf, splits)
            snapshot = hub.snapshot()
        assert pickle.dumps(observed) == pickle.dumps(bare)
        job = snapshot["jobs"][observed.job_id]
        assert job["rows_total"] == observed.records_processed

    def test_limit_short_circuit_parity_under_hub(self, mmap_splits, chunk_rows):
        # LIMIT-k stops mid-partition; the chunked scan must stop at the
        # exact same row (records_read feeds the selectivity estimator).
        pred, splits = mmap_splits
        chunk_rows(100)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=5,
            policy_name=None,
        )
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            bare = runner.run(conf, splits)
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            with LocalRunner(
                map_executor="process", map_workers=2, trace=trace
            ) as runner:
                observed = runner.run(conf, splits)
        assert pickle.dumps(observed) == pickle.dumps(bare)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_scan_job_parity_under_both_executors(
        self, mmap_splits, chunk_rows, executor
    ):
        pred, splits = mmap_splits
        chunk_rows(1000)
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=pred,
            columns=("l_orderkey", "l_quantity"),
        )
        with LocalRunner(map_executor=executor, map_workers=2) as runner:
            bare = runner.run(conf, splits)
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            with LocalRunner(
                map_executor=executor, map_workers=2, trace=trace
            ) as runner:
                observed = runner.run(conf, splits)
        assert pickle.dumps(observed) == pickle.dumps(bare)


class TestSweep:
    def test_sweep_results_identical_with_hub(self):
        from repro.experiments.sweep import figure5_points, run_sweep

        points = figure5_points(
            scales=(5,), skews=(0,), policies=("Hadoop",), seeds=(0,),
            sample_size=10_000,
        )
        bare = run_sweep(points, jobs=1)
        trace = TraceRecorder()
        with TelemetryHub() as hub:
            hub.attach(trace)
            observed = run_sweep(points, jobs=1, trace=trace)
            snapshot = hub.snapshot()
        assert pickle.dumps(observed) == pickle.dumps(bare)
        assert snapshot["sweep"]["done"] == len(points)
