"""Unit tests for TaskTracker execution mechanics and timing."""

import pytest

from repro.cluster import CostModel, paper_topology
from repro.core.sampling_job import make_sampling_conf, make_scan_conf
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.engine.jobtracker import JobTracker
from repro.errors import JobError
from repro.sim import Simulator
from tests.unit.test_scan_equivalence import built_rows


def build_world(
    *, materialized=False, num_partitions=8, dispatch_delay=0.0, cost_model=None
):
    sim = Simulator()
    topo = paper_topology()
    tracker = JobTracker(
        sim, topo, cost_model=cost_model, dispatch_delay=dispatch_delay
    )
    pred = predicate_for_skew(0)
    if materialized:
        spec = dataset_spec_for_scale(0.001, num_partitions=num_partitions)
        data = build_materialized_dataset(spec, {pred: 0.0}, seed=0, selectivity=0.01)
    else:
        data = build_profiled_dataset(
            dataset_spec_for_scale(5, num_partitions=num_partitions),
            {pred: 0.0}, seed=0,
        )
    dfs = DistributedFileSystem(topo.storage_locations())
    dfs.write_dataset("/d", data)
    return sim, topo, tracker, pred, data, dfs.open_splits("/d")


class TestTimingModel:
    def test_map_duration_matches_cost_model(self):
        sim, _topo, tracker, pred, _data, splits = build_world()
        cost = CostModel()
        job = tracker.submit_job(
            make_scan_conf(name="s", input_path="/d", predicate=pred,
                           fallback_selectivity=0.0005),
            splits[:1], input_complete=True, total_splits_known=1,
        )
        sim.run()
        task = job.completed_maps[0]
        expected = cost.map_task_duration(
            split_bytes=task.split.num_bytes,
            split_records=task.split.num_records,
            local=True,
            disk_readers=1,
        )
        assert task.duration == pytest.approx(expected)
        assert task.local is True

    def test_job_timeline_includes_setup_and_cleanup(self):
        sim, _topo, tracker, pred, _data, splits = build_world()
        cost = CostModel()
        job = tracker.submit_job(
            make_scan_conf(name="s", input_path="/d", predicate=pred,
                           fallback_selectivity=0.0005),
            splits[:1], input_complete=True, total_splits_known=1,
        )
        sim.run()
        map_duration = job.completed_maps[0].duration
        expected = cost.job_setup_seconds + map_duration + cost.job_cleanup_seconds
        assert job.finish_time == pytest.approx(expected)

    def test_concurrent_same_disk_readers_slow_each_other(self):
        """Two splits on the same disk processed concurrently take longer
        than the same splits processed alone (with an I/O-bound cost
        model — CPU-bound tasks legitimately mask disk sharing)."""
        io_bound = CostModel(cpu_seconds_per_record=1e-8)
        sim, topo, tracker, pred, _data, splits = build_world(
            num_partitions=80, cost_model=io_bound
        )
        # Find two splits stored on the same (node, disk).
        by_location = {}
        pair = None
        for split in splits:
            key = (split.location.node_id, split.location.disk_id)
            if key in by_location:
                pair = (by_location[key], split)
                break
            by_location[key] = split
        assert pair is not None
        job = tracker.submit_job(
            make_scan_conf(name="s", input_path="/d", predicate=pred,
                           fallback_selectivity=0.0005),
            list(pair), input_complete=True, total_splits_known=2,
        )
        sim.run()
        shared = max(t.duration for t in job.completed_maps)

        # Baseline: a single split alone.
        sim2, _t2, tracker2, _p, _d, splits2 = build_world(
            num_partitions=80, cost_model=io_bound
        )
        solo_job = tracker2.submit_job(
            make_scan_conf(name="s", input_path="/d", predicate=pred,
                           fallback_selectivity=0.0005),
            [splits2[0]], input_complete=True, total_splits_known=1,
        )
        sim2.run()
        solo = solo_job.completed_maps[0].duration
        assert shared > solo

    def test_reduce_input_equals_map_output(self):
        sim, _topo, tracker, pred, _data, splits = build_world()
        conf = make_sampling_conf(
            name="q", input_path="/d", predicate=pred, sample_size=10_000,
            policy_name=None,
        )
        job = tracker.submit_job(
            conf, splits, input_complete=True, total_splits_known=len(splits)
        )
        sim.run()
        assert job.reduce_task.input_records == job.outputs_produced
        assert job.reduce_task.outputs_produced == min(10_000, job.outputs_produced)


class TestRealExecution:
    def test_materialized_split_runs_real_mapper(self):
        sim, _topo, tracker, pred, data, splits = build_world(materialized=True)
        conf = make_sampling_conf(
            name="q", input_path="/d", predicate=pred, sample_size=50,
            policy_name=None,
        )
        job = tracker.submit_job(
            conf, splits, input_complete=True, total_splits_known=len(splits)
        )
        sim.run()
        # Real output rows exist and match the predicate.
        for task in job.completed_maps:
            assert task.output_data is not None
            for _key, row in built_rows(task.output_data):
                assert pred.matches(row)
        assert job.reduce_task.output_data is not None

    def test_profile_split_without_profile_fn_fails_loudly(self):
        sim, _topo, tracker, pred, _data, splits = build_world()
        conf = make_scan_conf(
            name="s", input_path="/d", predicate=pred,
            fallback_selectivity=0.0005,
        )
        conf.profile_outputs = None
        conf.mapper_factory = None
        tracker.submit_job(
            conf, splits[:1], input_complete=True, total_splits_known=1
        )
        with pytest.raises(JobError):
            sim.run()


class TestLocalityAccounting:
    def test_local_tasks_counted(self):
        sim, _topo, tracker, pred, _data, splits = build_world()
        job = tracker.submit_job(
            make_scan_conf(name="s", input_path="/d", predicate=pred,
                           fallback_selectivity=0.0005),
            splits, input_complete=True, total_splits_known=len(splits),
        )
        sim.run()
        local = sum(1 for task in job.completed_maps if task.local)
        remote = sum(1 for task in job.completed_maps if not task.local)
        assert local + remote == len(splits)
        # 8 splits over 40 free slots: every task can run at its data.
        assert local == len(splits)
