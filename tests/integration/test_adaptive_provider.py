"""Tests for the adaptive provider: the ladder budget (paper §VII future work)."""

import random

import pytest

from repro import SimulatedCluster, make_sampling_conf, make_scan_conf
from repro.cluster import paper_topology
from repro.core import default_providers, paper_policies
from repro.core.protocol import ClusterStatus
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem
from repro.engine.job import JobState
from repro.errors import InputProviderError


def status(total=40, available=40):
    return ClusterStatus(
        total_map_slots=total,
        available_map_slots=available,
        running_map_tasks=total - available,
        queued_map_tasks=0,
    )


def make_provider(params=None, num_partitions=16):
    pred = predicate_for_skew(0)
    data = build_profiled_dataset(
        dataset_spec_for_scale(0.01, num_partitions=num_partitions),
        {pred: 0.0},
        seed=0,
        selectivity=0.01,
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    conf = make_sampling_conf(
        name="adaptive-test", input_path="/t", predicate=pred,
        sample_size=100, policy_name="LA", provider_name="adaptive",
    )
    for key, value in (params or {}).items():
        conf.set(key, value)
    provider = default_providers().create("adaptive")
    provider.initialize(
        dfs.open_splits("/t"), conf, paper_policies().get("LA"), random.Random(0)
    )
    return provider


class TestPolicySelection:
    def test_idle_cluster_selects_most_aggressive(self):
        provider = make_provider()
        policy = provider.budget.policy_for(status(available=40))
        assert policy.name == "HA"

    def test_saturated_cluster_selects_most_conservative(self):
        provider = make_provider()
        policy = provider.budget.policy_for(status(available=0))
        assert policy.name == "C"

    def test_intermediate_load_selects_middle_rung(self):
        provider = make_provider()
        policy = provider.budget.policy_for(status(available=20))
        assert policy.name in ("LA", "MA")

    def test_custom_ladder(self):
        provider = make_provider({"dynamic.adaptive.ladder": "C,HA"})
        idle = provider.budget.policy_for(status(available=40))
        busy = provider.budget.policy_for(status(available=0))
        assert idle.name == "HA"
        assert busy.name == "C"

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(InputProviderError):
            make_provider(
                {"dynamic.adaptive.idle.load": "0.9", "dynamic.adaptive.busy.load": "0.1"}
            )
        with pytest.raises(InputProviderError):
            make_provider({"dynamic.adaptive.idle.load": "1.5"})

    def test_unknown_ladder_policy_rejected(self):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            make_provider({"dynamic.adaptive.ladder": "C,NOPE"})

    def test_skew_signal_escalates_one_rung(self):
        provider = make_provider()
        # Feed an erratic yield history: bursts and droughts.
        provider.budget._yield_history = [0.0, 0.0, 50.0, 0.0, 0.0]
        busy = provider.budget.policy_for(status(available=0))
        assert busy.name == "LA"  # one rung above C

    def test_stable_yield_does_not_escalate(self):
        provider = make_provider()
        provider.budget._yield_history = [10.0, 11.0, 9.0, 10.0]
        busy = provider.budget.policy_for(status(available=0))
        assert busy.name == "C"


class TestEndToEnd:
    def run_adaptive(self, *, background_jobs: int, seed=0):
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(
            dataset_spec_for_scale(20), {pred: 0.0}, seed=seed
        )
        cluster = SimulatedCluster(paper_topology(), seed=seed)
        cluster.load_dataset("/d", data)
        for index in range(background_jobs):
            cluster.submit(
                make_scan_conf(
                    name=f"bg{index}", input_path="/d", predicate=pred,
                    fallback_selectivity=0.0005,
                )
            )
        conf = make_sampling_conf(
            name="adaptive", input_path="/d", predicate=pred,
            sample_size=10_000, policy_name="LA", provider_name="adaptive",
        )
        return cluster.run_job(conf)

    def test_completes_on_idle_cluster(self):
        result = self.run_adaptive(background_jobs=0)
        assert result.state is JobState.SUCCEEDED
        assert result.outputs_produced == 10_000

    def test_completes_on_loaded_cluster(self):
        result = self.run_adaptive(background_jobs=3)
        assert result.state is JobState.SUCCEEDED
        assert result.outputs_produced == 10_000

    def test_idle_adaptive_matches_aggressive_fixed_policy(self):
        """On an idle cluster, adaptive should track HA's response, far
        below C's."""
        adaptive = self.run_adaptive(background_jobs=0)

        def run_fixed(policy):
            pred = predicate_for_skew(0)
            data = build_profiled_dataset(
                dataset_spec_for_scale(20), {pred: 0.0}, seed=0
            )
            cluster = SimulatedCluster(paper_topology(), seed=0)
            cluster.load_dataset("/d", data)
            return cluster.run_job(
                make_sampling_conf(
                    name=f"fixed-{policy}", input_path="/d", predicate=pred,
                    sample_size=10_000, policy_name=policy,
                )
            )

        ha = run_fixed("HA")
        conservative = run_fixed("C")
        assert adaptive.response_time <= ha.response_time * 1.5
        assert adaptive.response_time < conservative.response_time


class TestAdaptiveViaHive:
    def test_set_provider_from_sql(self):
        from repro.data import LINEITEM_SCHEMA
        from repro.hive import HiveSession

        pred = predicate_for_skew(0)
        data = build_profiled_dataset(
            dataset_spec_for_scale(5), {pred: 0.0}, seed=0
        )
        cluster = SimulatedCluster(paper_topology(), seed=0)
        cluster.load_dataset("/warehouse/lineitem", data)
        session = HiveSession(cluster=cluster)
        session.register_table("lineitem", "/warehouse/lineitem", LINEITEM_SCHEMA)
        session.execute("SET dynamic.input.provider = adaptive")
        result = session.execute(
            "SELECT * FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 10000"
        )
        assert result.job.outputs_produced == 10_000
