"""Integration tests: real MapReduce execution via the LocalRunner."""

import pytest

from repro import LocalRunner, make_sampling_conf, make_scan_conf
from repro.cluster import paper_topology
from repro.core.sampling_job import DUMMY_KEY
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.errors import JobConfError, JobError
from repro.obs.trace import TraceRecorder
from repro.scan.engine import run_map_task
from tests.unit.test_scan_equivalence import (
    built_rows,
    reference_sample,
    reference_sampling_job,
    scan_chunks,
)


def build_splits(z=0, num_partitions=16, selectivity=0.01, seed=0, scale=0.002):
    pred = predicate_for_skew(z)
    spec = dataset_spec_for_scale(scale, num_partitions=num_partitions)
    data = build_materialized_dataset(
        spec, {pred: float(z)}, seed=seed, selectivity=selectivity
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, data, dfs.open_splits("/t")


class TestStaticSampling:
    def test_full_scan_returns_exact_sample(self):
        pred, data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=50,
            policy_name=None,
        )
        result = LocalRunner().run(conf, splits)
        assert result.outputs_produced == 50
        assert result.splits_processed == 16
        assert all(pred.matches(row) for row in result.sample)

    def test_sample_smaller_than_k_when_scarce(self):
        pred, data, splits = build_splits(selectivity=0.001)  # 12 matches
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=500,
            policy_name=None,
        )
        result = LocalRunner().run(conf, splits)
        assert result.outputs_produced == data.total_matches(pred.name)

    def test_map_outputs_use_dummy_key(self):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=5,
            policy_name=None,
        )
        result = LocalRunner().run(conf, splits)
        assert all(key == DUMMY_KEY for key, _ in result.output_data)


class TestDynamicSampling:
    @pytest.mark.parametrize("policy", ["Hadoop", "HA", "MA", "LA", "C"])
    def test_every_policy_reaches_target(self, policy):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=40,
            policy_name=policy,
        )
        result = LocalRunner(seed=3).run(conf, splits)
        assert result.outputs_produced == 40
        assert all(pred.matches(row) for row in result.sample)

    def test_dynamic_processes_fewer_splits_than_hadoop(self):
        pred, _data, splits = build_splits(num_partitions=32, scale=0.004)
        kwargs = dict(input_path="/t", predicate=pred, sample_size=30)
        hadoop = LocalRunner(seed=1).run(
            make_sampling_conf(name="h", policy_name="Hadoop", **kwargs), splits
        )
        conservative = LocalRunner(seed=1).run(
            make_sampling_conf(name="c", policy_name="C", **kwargs), splits
        )
        assert hadoop.splits_processed == 32
        assert conservative.splits_processed < hadoop.splits_processed
        assert conservative.outputs_produced == 30

    def test_high_skew_still_reaches_target(self):
        pred, data, splits = build_splits(z=2, num_partitions=16)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=60,
            policy_name="C",
        )
        result = LocalRunner(seed=9).run(conf, splits)
        assert result.outputs_produced == 60

    def test_exhausting_input_returns_partial_sample(self):
        pred, data, splits = build_splits(selectivity=0.001)  # 12 matches total
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10_000,
            policy_name="LA",
        )
        result = LocalRunner(seed=2).run(conf, splits)
        assert result.splits_processed == 16  # had to read everything
        assert result.outputs_produced == data.total_matches(pred.name)

    def test_increments_counted(self):
        pred, _data, splits = build_splits(num_partitions=32, scale=0.004)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=200,
            policy_name="C",
        )
        result = LocalRunner(seed=4).run(conf, splits)
        assert result.input_increments >= 2

    def test_deterministic_under_seed(self):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=40,
            policy_name="LA",
        )
        a = LocalRunner(seed=5).run(conf, splits)
        b = LocalRunner(seed=5).run(conf, splits)
        assert a.sample == b.sample
        assert a.splits_processed == b.splits_processed


class TestScanJobs:
    def test_scan_emits_all_matches(self):
        pred, data, splits = build_splits()
        conf = make_scan_conf(name="s", input_path="/t", predicate=pred)
        result = LocalRunner().run(conf, splits)
        assert result.outputs_produced == data.total_matches(pred.name)


def result_fingerprint(result):
    return (
        result.output_data,
        result.records_processed,
        result.map_outputs_produced,
        result.splits_processed,
        result.evaluations,
        result.input_increments,
    )


class TestScanModeParity:
    """The acceptance bar: results that match the reference map tasks,
    byte-identical across serial/parallel map execution, layouts and
    batch sizes."""

    def run_with(self, conf_name, *, map_workers=1, policy_name="LA", seed=3):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name=conf_name, input_path="/t", predicate=pred, sample_size=40,
            policy_name=policy_name,
        )
        runner = LocalRunner(seed=seed, map_workers=map_workers)
        return runner.run(conf, splits)

    def test_matches_the_reference(self):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=40,
            policy_name="LA",
        )
        trace = TraceRecorder()
        result = LocalRunner(seed=3, trace=trace).run(conf, splits)
        order = [e["split_id"] for e in trace.raw_events if e["type"] == "scan_span"]
        assert len(order) == result.splits_processed
        assert (
            result.output_data, result.records_processed, result.map_outputs_produced
        ) == reference_sampling_job(splits, order, pred, 40)

    def test_serial_parallel_byte_identical(self):
        serial = result_fingerprint(self.run_with("q", map_workers=1))
        parallel = result_fingerprint(self.run_with("q", map_workers=4))
        assert serial == parallel

    def test_batch_size_does_not_change_results(self):
        pred, _data, splits = build_splits()
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=40,
            policy_name=None,
        )
        for split in splits:
            with scan_chunks(7):
                small = run_map_task(conf, split)
            large = run_map_task(conf, split)
            assert (built_rows(small.outputs), small.records_read) == (
                built_rows(large.outputs), large.records_read
            )
            assert (built_rows(large.outputs), large.records_read) == reference_sample(
                split, pred, 40
            )

    def test_mmap_layout_byte_identical_to_row(self, tmp_path):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.002, num_partitions=16)
        fingerprints = []
        for layout in ("row", "mmap"):
            data = build_materialized_dataset(
                spec, {pred: 0.0}, seed=0, selectivity=0.01, layout=layout,
                mmap_path=str(tmp_path / "t.rcs") if layout == "mmap" else None,
            )
            dfs = DistributedFileSystem(paper_topology().storage_locations())
            dfs.write_dataset("/t", data)
            conf = make_sampling_conf(
                name="q", input_path="/t", predicate=pred, sample_size=40,
                policy_name="LA",
            )
            result = LocalRunner(seed=3).run(conf, dfs.open_splits("/t"))
            fingerprints.append(result_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]

    def test_invalid_map_workers_rejected(self):
        with pytest.raises(JobConfError):
            LocalRunner(map_workers=0)

    def test_short_circuit_reduces_records_processed(self):
        """A static sampling job scans fewer rows than the dataset when
        matches are plentiful — exactly the reference's count."""
        pred, data, splits = build_splits(selectivity=0.05)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=5,
            policy_name=None,
        )
        result = LocalRunner().run(conf, splits)
        assert result.records_processed < data.total_records
        order = [split.split_id for split in splits]  # a static job scans all
        _output, records, _outputs = reference_sampling_job(splits, order, pred, 5)
        assert result.records_processed == records


class TestRunnerValidation:
    def test_profile_split_rejected(self):
        from repro.data import build_profiled_dataset

        pred = predicate_for_skew(0)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {pred: 0.0}, seed=0
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/big", data)
        conf = make_sampling_conf(
            name="q", input_path="/big", predicate=pred, sample_size=10,
            policy_name=None,
        )
        with pytest.raises(JobError):
            LocalRunner().run(conf, dfs.open_splits("/big"))

    def test_missing_mapper_rejected(self):
        pred, _data, splits = build_splits(num_partitions=4, scale=0.0005)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10,
        )
        conf.mapper_factory = None
        with pytest.raises(JobConfError):
            LocalRunner().run(conf, splits)

    def test_empty_splits_rejected(self):
        pred, _data, _splits = build_splits(num_partitions=4, scale=0.0005)
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10,
        )
        with pytest.raises(JobConfError):
            LocalRunner().run(conf, [])
