"""Unit tests for the DFS substrate."""

import pytest

from repro.cluster import paper_topology
from repro.data import build_materialized_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import (
    DistributedFileSystem,
    RandomPlacement,
    RoundRobinPlacement,
    StorageLocation,
)
from repro.dfs.dfs import normalize_path
from repro.errors import (
    DfsError,
    FileAlreadyExistsError,
    FileNotFoundInDfsError,
)


def small_dataset(num_partitions=8, seed=0):
    pred = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.0005, num_partitions=num_partitions)
    return build_materialized_dataset(spec, {pred: 0.0}, seed=seed, selectivity=0.01)


@pytest.fixture()
def dfs():
    return DistributedFileSystem(paper_topology().storage_locations())


class TestNormalizePath:
    def test_adds_leading_slash(self):
        assert normalize_path("a/b") == "/a/b"

    def test_collapses_separators(self):
        assert normalize_path("//a///b/") == "/a/b"

    def test_empty_rejected(self):
        with pytest.raises(DfsError):
            normalize_path("")
        with pytest.raises(DfsError):
            normalize_path("///")


class TestNameNode:
    """The DFS namespace (HDFS's namenode role)."""

    def test_create_and_get(self, dfs):
        dfs.write_dataset("/x", small_dataset())
        assert dfs.exists("x")
        assert dfs.open_splits("x")[0].file_path == "/x"

    def test_duplicate_create_rejected(self, dfs):
        dfs.write_dataset("/x", small_dataset())
        with pytest.raises(FileAlreadyExistsError):
            dfs.write_dataset("x", small_dataset())

    def test_get_missing_rejected(self, dfs):
        with pytest.raises(FileNotFoundInDfsError):
            dfs.open_splits("/missing")

    def test_delete(self, dfs):
        dfs.write_dataset("/x", small_dataset())
        dfs.delete("/x")
        assert not dfs.exists("/x")
        with pytest.raises(FileNotFoundInDfsError):
            dfs.delete("/x")


class TestPlacementPolicies:
    LOCATIONS = [StorageLocation(f"n{i}", d) for i in range(3) for d in range(2)]

    def test_round_robin_even_spread(self):
        placed = RoundRobinPlacement().place(12, self.LOCATIONS)
        counts = {loc: placed.count(loc) for loc in self.LOCATIONS}
        assert set(counts.values()) == {2}

    def test_round_robin_continues_across_files(self):
        policy = RoundRobinPlacement()
        first = policy.place(4, self.LOCATIONS)
        second = policy.place(4, self.LOCATIONS)
        assert second[0] == self.LOCATIONS[4]
        assert first[0] == self.LOCATIONS[0]

    def test_round_robin_empty_locations_rejected(self):
        with pytest.raises(DfsError):
            RoundRobinPlacement().place(1, [])

    def test_random_placement_uses_all_locations_eventually(self):
        placed = RandomPlacement().place(200, self.LOCATIONS)
        assert set(placed) == set(self.LOCATIONS)


class TestDistributedFileSystem:
    def test_write_then_open_splits(self, dfs):
        data = small_dataset()
        dfs.write_dataset("/data/t", data)
        splits = dfs.open_splits("/data/t")
        assert len(splits) == 8
        assert [s.index for s in splits] == list(range(8))

    def test_open_splits_hands_out_the_written_splits(self, dfs):
        """A file's splits are built once, at write time: every read
        returns a new list of the same split objects."""
        dfs.write_dataset("/data/t", small_dataset())
        first = dfs.open_splits("/data/t")
        second = dfs.open_splits("data//t/")
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert [s.split_id for s in first] == [f"/data/t:{i}" for i in range(8)]
        first.pop()
        assert len(dfs.open_splits("/data/t")) == 8
        dfs.delete("/data/t")
        dfs.write_dataset("/data/t", small_dataset())
        rewritten = dfs.open_splits("/data/t")
        assert [s.split_id for s in rewritten] == [s.split_id for s in second]
        assert not any(a is b for a, b in zip(rewritten, second))

    def test_even_spread_across_nodes(self, dfs):
        """40 partitions over the paper topology must land one per disk."""
        data = small_dataset(num_partitions=40)
        dfs.write_dataset("/data/t", data)
        locations = [s.location for s in dfs.open_splits("/data/t")]
        assert len(set(locations)) == 40

    def test_split_metadata(self, dfs):
        data = small_dataset()
        dfs.write_dataset("/data/t", data)
        split = dfs.open_splits("/data/t")[0]
        assert split.num_records == data.partitions[0].num_records
        assert split.materialized
        assert split.file_path == "/data/t"
        assert sum(1 for _ in split.iter_rows()) == split.num_records

    def test_locality_check(self, dfs):
        data = small_dataset()
        dfs.write_dataset("/data/t", data)
        split = dfs.open_splits("/data/t")[0]
        assert split.is_local_to(split.location.node_id)
        assert not split.is_local_to("node99")

    def test_delete_and_exists(self, dfs):
        dfs.write_dataset("/data/t", small_dataset())
        assert dfs.exists("/data/t")
        dfs.delete("/data/t")
        assert not dfs.exists("/data/t")

    def test_requires_storage_locations(self):
        with pytest.raises(DfsError):
            DistributedFileSystem([])

    def test_profile_split_rows_not_materialized(self, dfs):
        from repro.data import build_profiled_dataset

        pred = predicate_for_skew(0)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {pred: 0.0}, seed=1
        )
        dfs.write_dataset("/data/big", data)
        split = dfs.open_splits("/data/big")[0]
        assert not split.materialized
        with pytest.raises(DfsError):
            split.iter_rows()
        assert split.matches_for(pred.name) >= 0
