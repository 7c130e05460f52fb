"""Unit tests for the Hive query compiler (statement -> JobConf)."""

import pytest

from repro.data import LINEITEM_SCHEMA
from repro.data.predicates import TruePredicate
from repro.errors import HiveAnalysisError
from repro.hive.compiler import (
    DEFAULT_POLICY,
    PARAM_DYNAMIC,
    PARAM_FALLBACK_SELECTIVITY,
    PARAM_POLICY,
    QueryCompiler,
    TableCatalog,
)
from repro.hive.parser import parse_statement


@pytest.fixture()
def compiler():
    catalog = TableCatalog()
    catalog.register("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
    return QueryCompiler(catalog)


def compile_sql(compiler, sql, params=None, user="alice"):
    return compiler.compile(parse_statement(sql), params or {}, user=user)


class TestCatalog:
    def test_register_and_lookup_case_insensitive(self):
        catalog = TableCatalog()
        catalog.register("LineItem", "/p")
        assert catalog.lookup("LINEITEM").path == "/p"
        assert "lineitem" in catalog

    def test_unknown_table_rejected(self):
        with pytest.raises(HiveAnalysisError):
            TableCatalog().lookup("ghost")

    def test_empty_name_rejected(self):
        with pytest.raises(HiveAnalysisError):
            TableCatalog().register("", "/p")


class TestSamplingCompilation:
    def test_limit_query_becomes_dynamic_sampling_job(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT ORDERKEY FROM lineitem WHERE L_QUANTITY = 51 LIMIT 500",
        )
        assert conf.is_dynamic
        assert conf.sample_size == 500
        assert conf.policy_name == DEFAULT_POLICY
        assert conf.input_provider_name == "sampling"
        assert conf.num_reduce_tasks == 1
        assert conf.input_path == "/warehouse/lineitem"

    def test_session_policy_respected(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT * FROM lineitem WHERE l_tax = 0.09 LIMIT 10",
            params={PARAM_POLICY: "HA"},
        )
        assert conf.policy_name == "HA"

    def test_dynamic_disabled_gives_static_job(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT * FROM lineitem WHERE l_tax = 0.09 LIMIT 10",
            params={PARAM_DYNAMIC: "false"},
        )
        assert not conf.is_dynamic
        assert conf.sample_size == 10

    def test_projection_resolved_against_schema(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT ORDERKEY, PARTKEY FROM lineitem WHERE l_tax = 0.09 LIMIT 5",
        )
        mapper = conf.mapper_factory()
        assert mapper._columns == ("l_orderkey", "l_partkey")

    def test_unknown_projection_column_rejected(self, compiler):
        with pytest.raises(HiveAnalysisError):
            compile_sql(compiler, "SELECT bogus FROM lineitem LIMIT 5")

    def test_user_stamped_into_conf(self, compiler):
        conf = compile_sql(
            compiler, "SELECT * FROM lineitem LIMIT 5", user="bob"
        )
        assert conf.user == "bob"
        assert "bob" in conf.name

    def test_query_names_unique(self, compiler):
        a = compile_sql(compiler, "SELECT * FROM lineitem LIMIT 5")
        b = compile_sql(compiler, "SELECT * FROM lineitem LIMIT 5")
        assert a.name != b.name

    def test_missing_where_samples_everything(self, compiler):
        conf = compile_sql(compiler, "SELECT * FROM lineitem LIMIT 5")
        mapper = conf.mapper_factory()
        assert isinstance(mapper._predicate, TruePredicate)


class TestScanCompilation:
    def test_no_limit_becomes_static_scan(self, compiler):
        conf = compile_sql(
            compiler, "SELECT * FROM lineitem WHERE l_quantity = 51"
        )
        assert not conf.is_dynamic
        assert conf.num_reduce_tasks == 0
        assert conf.sample_size is None

    def test_fallback_selectivity_param(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT * FROM lineitem WHERE l_linenumber = 3",
            params={PARAM_FALLBACK_SELECTIVITY: "0.01"},
        )
        # Profile-mode output estimate uses the configured selectivity.
        from repro.data.datasets import PartitionData
        from repro.dfs.split import InputSplit, StorageLocation

        payload = PartitionData(index=0, num_records=1000, num_bytes=100_000)
        split = InputSplit(
            file_path="/w", payload=payload, replicas=(StorageLocation("n0", 0),)
        )
        assert conf.profile_outputs(split) == 10


class TestProviderSelection:
    def test_default_provider(self, compiler):
        conf = compile_sql(compiler, "SELECT * FROM lineitem LIMIT 5")
        assert conf.input_provider_name == "sampling"

    def test_session_provider_respected(self, compiler):
        conf = compile_sql(
            compiler,
            "SELECT * FROM lineitem WHERE l_tax = 0.09 LIMIT 5",
            params={"dynamic.input.provider": "adaptive"},
        )
        assert conf.input_provider_name == "adaptive"
