"""Unit tests for HDFS-style block replication (extension; paper uses 1)."""

import pytest

from repro import SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem, RoundRobinPlacement
from repro.dfs import InputSplit, StorageLocation
from repro.data.datasets import PartitionData
from repro.errors import DfsError


def small_dataset(num_partitions=8):
    pred = predicate_for_skew(0)
    return pred, build_profiled_dataset(
        dataset_spec_for_scale(0.001, num_partitions=num_partitions),
        {pred: 0.0}, seed=0,
    )


class TestBlockReplicas:
    def payload(self):
        return PartitionData(index=0, num_records=10, num_bytes=100)

    def test_default_single_replica(self):
        split = InputSplit(
            file_path="/f", payload=self.payload(),
            replicas=(StorageLocation("n0", 0),),
        )
        assert split.location == StorageLocation("n0", 0)
        assert len(split.replicas) == 1

    def test_multi_replica_locality(self):
        split = InputSplit(
            file_path="/f", payload=self.payload(),
            replicas=(StorageLocation("n0", 0), StorageLocation("n1", 2)),
        )
        assert split.location == StorageLocation("n0", 0)
        assert split.is_local_to("n0")
        assert split.is_local_to("n1")
        assert not split.is_local_to("n2")
        assert split.replica_on("n1") == StorageLocation("n1", 2)
        assert split.replica_on("n2") is None

    def test_replicas_on_distinct_nodes(self):
        with pytest.raises(DfsError):
            InputSplit(
                file_path="/f", payload=self.payload(),
                replicas=(StorageLocation("n0", 0), StorageLocation("n0", 1)),
            )


class TestReplicaPlacement:
    LOCATIONS = [StorageLocation(f"n{i}", d) for d in range(2) for i in range(4)]

    def test_replication_one_matches_primary_placement(self):
        policy = RoundRobinPlacement()
        placed = policy.place_replicas(4, self.LOCATIONS, 1)
        assert all(len(replicas) == 1 for replicas in placed)

    def test_replicas_distinct_nodes(self):
        policy = RoundRobinPlacement()
        placed = policy.place_replicas(8, self.LOCATIONS, 3)
        for replicas in placed:
            nodes = [r.node_id for r in replicas]
            assert len(set(nodes)) == 3

    def test_replication_beyond_nodes_rejected(self):
        with pytest.raises(DfsError):
            RoundRobinPlacement().place_replicas(1, self.LOCATIONS, 5)

    def test_zero_replication_rejected(self):
        with pytest.raises(DfsError):
            RoundRobinPlacement().place_replicas(1, self.LOCATIONS, 0)


class TestDfsReplication:
    def test_filesystem_default(self):
        _pred, data = small_dataset()
        dfs = DistributedFileSystem(
            paper_topology().storage_locations(), replication=3
        )
        dfs.write_dataset("/d", data)
        for split in dfs.open_splits("/d"):
            assert len(split.replicas) == 3

    def test_per_file_override(self):
        _pred, data = small_dataset()
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/single", data)
        dfs.write_dataset("/triple", small_dataset()[1], replication=3)
        assert len(dfs.open_splits("/single")[0].replicas) == 1
        assert len(dfs.open_splits("/triple")[0].replicas) == 3

    def test_invalid_replication_rejected(self):
        with pytest.raises(DfsError):
            DistributedFileSystem(
                paper_topology().storage_locations(), replication=0
            )


class TestReplicationOnCluster:
    def test_replication_improves_locality_under_random_placement(self):
        """Under HDFS-like random placement (where data clumps on some
        nodes), 3 replicas give the scheduler more local choices than 1.

        Note the paper's even one-partition-per-disk layout makes
        replication irrelevant — every task is local anyway — which is
        why this test uses RandomPlacement.
        """
        import random

        from repro.dfs.placement import RandomPlacement

        pred = predicate_for_skew(0)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {pred: 0.0}, seed=1
        )

        def run(replication):
            cluster = SimulatedCluster(
                paper_topology(), placement=RandomPlacement(random.Random(7)),
                seed=3,
            )
            cluster.dfs.write_dataset("/d", data, replication=replication)
            for index in range(4):
                conf = make_sampling_conf(
                    name=f"q{index}", input_path="/d", predicate=pred,
                    sample_size=10_000, policy_name="Hadoop",
                )
                cluster.submit(conf)
            cluster.run()
            assert all(r.outputs_produced == 10_000 for r in cluster.results)
            return cluster.metrics.locality_pct

        assert run(3) > run(1)

    def test_replicated_materialized_sample_correct(self):
        pred = predicate_for_skew(0)
        spec = dataset_spec_for_scale(0.002, num_partitions=16)
        data = build_materialized_dataset(spec, {pred: 0.0}, seed=1, selectivity=0.01)
        cluster = SimulatedCluster.paper_cluster(seed=3)
        cluster.dfs.write_dataset("/d", data, replication=3)
        conf = make_sampling_conf(
            name="q", input_path="/d", predicate=pred, sample_size=50,
            policy_name="LA",
        )
        result = cluster.run_job(conf)
        assert result.outputs_produced == 50
        assert all(pred.matches(row) for row in result.sample)
