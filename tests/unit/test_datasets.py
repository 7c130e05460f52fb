"""Unit tests for dataset specs and builders (Table II)."""

import pytest

from repro.data import (
    PAPER_SELECTIVITY,
    TABLE2_SCALES,
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.errors import DataGenerationError


class TestDatasetSpec:
    def test_paper_scales(self):
        assert TABLE2_SCALES == (5, 10, 20, 40, 100)

    @pytest.mark.parametrize(
        "scale,rows,partitions",
        [(5, 30_000_000, 40), (10, 60_000_000, 80), (100, 600_000_000, 800)],
    )
    def test_table2_row(self, scale, rows, partitions):
        spec = dataset_spec_for_scale(scale)
        assert spec.num_rows == rows
        assert spec.num_partitions == partitions

    def test_partition_sizes_near_hdfs_block(self):
        """5x over 40 partitions should land near the ~94 MB/partition the
        paper's even-spread layout implies."""
        spec = dataset_spec_for_scale(5)
        assert 80e6 <= spec.bytes_per_partition <= 110e6

    def test_partition_row_counts_sum(self):
        spec = dataset_spec_for_scale(0.001, num_partitions=7)
        counts = spec.partition_row_counts()
        assert sum(counts) == spec.num_rows
        assert max(counts) - min(counts) <= 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(DataGenerationError):
            dataset_spec_for_scale(0)

    def test_custom_partition_count(self):
        assert dataset_spec_for_scale(5, num_partitions=13).num_partitions == 13


class TestProfiledDataset:
    def test_total_matches_at_paper_selectivity(self):
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=1)
        assert data.total_matches(pred.name) == round(30_000_000 * PAPER_SELECTIVITY)

    def test_partition_metadata_consistent(self):
        pred = predicate_for_skew(2)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 2.0}, seed=2)
        assert data.total_records == 30_000_000
        assert len(data.partitions) == 40
        assert not data.materialized

    def test_multiple_predicates_independent_placements(self):
        p0, p2 = predicate_for_skew(0), predicate_for_skew(2)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {p0: 0.0, p2: 2.0}, seed=3
        )
        assert data.total_matches(p0.name) == data.total_matches(p2.name)
        assert data.placement_for(p2.name).gini() > data.placement_for(p0.name).gini()

    def test_unknown_placement_lookup_rejected(self):
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=4)
        with pytest.raises(DataGenerationError):
            data.placement_for("nope")

    def test_deterministic_under_seed(self):
        pred = predicate_for_skew(1)
        a = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 1.0}, seed=5)
        b = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 1.0}, seed=5)
        counts_a = [p.matches_for(pred.name) for p in a.partitions]
        counts_b = [p.matches_for(pred.name) for p in b.partitions]
        assert counts_a == counts_b

    def test_invalid_selectivity_rejected(self):
        pred = predicate_for_skew(0)
        with pytest.raises(DataGenerationError):
            build_profiled_dataset(
                dataset_spec_for_scale(5), {pred: 0.0}, selectivity=1.5
            )

    def test_placement_overflow_rejected(self):
        """Extreme skew on a tiny dataset would put more matches in a
        partition than it has rows; the builder must catch that."""
        pred = predicate_for_skew(2)
        spec = dataset_spec_for_scale(0.0001, num_partitions=4)  # 600 rows
        with pytest.raises(DataGenerationError):
            build_profiled_dataset(spec, {pred: 2.0}, seed=6, selectivity=0.9)


class TestMaterializedDataset:
    @pytest.fixture()
    def dataset(self):
        pred = predicate_for_skew(1)
        spec = dataset_spec_for_scale(0.002, num_partitions=8)  # 12k rows
        return pred, build_materialized_dataset(
            spec, {pred: 1.0}, seed=7, selectivity=0.01
        )

    def test_rows_materialized(self, dataset):
        _pred, data = dataset
        assert data.materialized
        assert sum(len(p.rows) for p in data.partitions) == 12_000

    def test_actual_matches_equal_metadata(self, dataset):
        pred, data = dataset
        for partition in data.partitions:
            actual = sum(1 for row in partition.rows if pred.matches(row))
            assert actual == partition.matches_for(pred.name)

    def test_iter_rows_covers_everything(self, dataset):
        _pred, data = dataset
        assert sum(1 for _ in data.iter_rows()) == 12_000

    def test_refuses_paper_scale(self):
        pred = predicate_for_skew(0)
        with pytest.raises(DataGenerationError):
            build_materialized_dataset(dataset_spec_for_scale(5), {pred: 0.0})

    def test_deterministic_rows_under_seed(self):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        a = build_materialized_dataset(spec, {pred: 0.0}, seed=9, selectivity=0.01)
        b = build_materialized_dataset(spec, {pred: 0.0}, seed=9, selectivity=0.01)
        assert a.partitions[0].rows == b.partitions[0].rows


class TestDatasetLayouts:
    def test_unknown_layout_lists_known_values(self):
        from repro.data.datasets import DATASET_LAYOUTS

        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        with pytest.raises(DataGenerationError) as err:
            build_materialized_dataset(
                spec, {pred: 0.0}, selectivity=0.01, layout="parquet"
            )
        for layout in DATASET_LAYOUTS:
            assert layout in str(err.value)

    def test_mmap_layout_requires_a_path(self):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        with pytest.raises(DataGenerationError, match="mmap_path"):
            build_materialized_dataset(
                spec, {pred: 0.0}, selectivity=0.01, layout="mmap"
            )

    def test_all_layouts_yield_identical_rows(self, tmp_path):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        kwargs = dict(seed=3, selectivity=0.01)
        row = build_materialized_dataset(spec, {pred: 0.0}, **kwargs)
        mmapped = build_materialized_dataset(
            spec, {pred: 0.0}, layout="mmap",
            mmap_path=str(tmp_path / "t.rcs"), **kwargs
        )
        assert list(row.iter_rows()) == list(mmapped.iter_rows())

    def test_mmap_layout_reads_straight_from_the_file(self, tmp_path):
        """The ColumnStore over an mmap partition is the reader's own view
        object — no per-partition copy is made on the read path."""
        from repro.scan.mmapstore import open_mmap_dataset

        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        path = tmp_path / "t.rcs"
        dataset = build_materialized_dataset(
            spec, {pred: 0.0}, seed=0, selectivity=0.01,
            layout="mmap", mmap_path=str(path),
        )
        reader = open_mmap_dataset(path)
        for index, partition in enumerate(dataset.partitions):
            assert partition.rows is None
            assert partition.column_store() is reader.partition_store(index)
