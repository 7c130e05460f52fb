"""Integration tests: Hive sessions end to end on both substrates."""

import pytest

from repro import LocalRunner, SimulatedCluster
from repro.data import (
    LINEITEM_SCHEMA,
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.cluster import paper_topology
from repro.errors import HiveAnalysisError, HiveError
from repro.hive import HiveSession


@pytest.fixture()
def local_session():
    pred = predicate_for_skew(2)
    spec = dataset_spec_for_scale(0.002, num_partitions=8)
    data = build_materialized_dataset(spec, {pred: 2.0}, seed=0, selectivity=0.01)
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/warehouse/lineitem", data)
    session = HiveSession(runner=LocalRunner(seed=1), dfs=dfs)
    session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
    return session


@pytest.fixture()
def cluster_session():
    pred = predicate_for_skew(2)
    data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 2.0}, seed=0)
    cluster = SimulatedCluster.paper_cluster()
    cluster.load_dataset("/warehouse/lineitem", data)
    session = HiveSession(cluster=cluster)
    session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
    return session


class TestLocalExecution:
    def test_paper_query_returns_sample(self, local_session):
        result = local_session.execute(
            "SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM "
            "WHERE L_QUANTITY = 51 LIMIT 25"
        )
        assert result.num_rows == 25
        assert set(result.rows[0].keys()) == {"l_orderkey", "l_partkey", "l_suppkey"}

    def test_select_star_projection(self, local_session):
        result = local_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 3"
        )
        assert set(result.rows[0].keys()) == set(LINEITEM_SCHEMA.field_names)

    def test_scan_without_limit(self, local_session):
        result = local_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51"
        )
        assert result.num_rows == 120  # 12k rows at 1% selectivity
        assert result.job.splits_processed == 8

    def test_compound_predicate(self, local_session):
        result = local_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 AND l_shipmode "
            "IN ('AIR', 'RAIL', 'SHIP', 'TRUCK', 'MAIL', 'FOB', 'REG AIR') LIMIT 5"
        )
        assert result.num_rows == 5

    def test_set_then_query_uses_policy(self, local_session):
        local_session.execute("SET dynamic.job.policy = C")
        result = local_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10"
        )
        assert result.num_rows == 10
        # A conservative dynamic run should not touch every split.
        assert result.job.splits_processed < 8

    def test_dynamic_disabled_via_set(self, local_session):
        local_session.execute("SET dynamic.job = false")
        result = local_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10"
        )
        assert result.job.splits_processed == 8  # classic full scan

    def test_explain_reports_plan(self, local_session):
        local_session.execute("SET dynamic.job.policy = MA")
        result = local_session.execute(
            "EXPLAIN SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10"
        )
        plan = result.rows[0]
        assert plan["dynamic"] is True
        assert plan["policy"] == "MA"
        assert plan["provider"] == "sampling"
        assert plan["sample_size"] == 10
        assert result.job is None

    def test_unknown_table_rejected(self, local_session):
        with pytest.raises(HiveAnalysisError):
            local_session.execute("SELECT * FROM nope LIMIT 5")

    def test_unknown_column_rejected(self, local_session):
        with pytest.raises(HiveAnalysisError):
            local_session.execute("SELECT zz FROM lineitem LIMIT 5")

    def test_register_missing_path_rejected(self, local_session):
        with pytest.raises(HiveError):
            local_session.register_table("ghost", "/no/such/file")


class TestMatcherReuse:
    def test_repeated_compound_query_compiles_no_matcher(
        self, local_session, monkeypatch
    ):
        from repro.scan import codegen

        monkeypatch.setattr(codegen, "_row_cache", {})
        monkeypatch.setattr(codegen, "_batch_cache", {})
        compiled = []
        compile_source = codegen._compile

        def spy(source, entry, namespace, pred):
            compiled.append(pred)
            return compile_source(source, entry, namespace, pred)

        monkeypatch.setattr(codegen, "_compile", spy)
        query = (
            "SELECT l_orderkey FROM lineitem "
            "WHERE l_quantity >= 51 AND l_shipmode <> 'FOB' LIMIT 20"
        )
        assert local_session.execute(query).num_rows > 0
        assert compiled, "the first query compiles its matcher"
        compiled.clear()
        assert local_session.execute(query).num_rows > 0
        assert compiled == []


class TestClusterExecution:
    def test_paper_query_at_scale(self, cluster_session):
        result = cluster_session.execute(
            "SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM "
            "WHERE L_QUANTITY = 51 LIMIT 10000"
        )
        assert result.job.outputs_produced == 10_000
        assert result.job.response_time > 0

    def test_policy_changes_execution(self, cluster_session):
        cluster_session.execute("SET dynamic.job.policy = HA")
        aggressive = cluster_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10000"
        )
        cluster_session.execute("SET dynamic.job.policy = C")
        conservative = cluster_session.execute(
            "SELECT * FROM lineitem WHERE l_quantity = 51 LIMIT 10000"
        )
        assert (
            conservative.job.response_time > aggressive.job.response_time
        )

    def test_profile_mode_needs_controlled_predicate(self, cluster_session):
        """An equality on an uncontrolled column cannot be profiled — the
        engine must fail loudly, not fabricate counts."""
        from repro.errors import JobConfError

        with pytest.raises(JobConfError):
            cluster_session.execute(
                "SELECT * FROM lineitem WHERE l_linenumber = 3 LIMIT 10"
            )


class TestSessionConstruction:
    def test_needs_some_substrate(self):
        with pytest.raises(HiveError):
            HiveSession()

    def test_rejects_both_substrates(self):
        with pytest.raises(HiveError):
            HiveSession(
                cluster=SimulatedCluster.paper_cluster(),
                runner=LocalRunner(),
                dfs=object(),
            )

    def test_runner_needs_dfs(self):
        with pytest.raises(HiveError):
            HiveSession(runner=LocalRunner())
