"""Edge-case unit tests for the LocalRunner's dynamic driver."""

import random

import pytest

from repro import LocalRunner, make_sampling_conf
from repro.cluster import paper_topology
from repro.core.input_provider import (
    InputProvider,
    ProviderRegistry,
    ProviderResponse,
    default_providers,
)
from repro.data import build_materialized_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem
from repro.errors import JobError


def build_splits(num_partitions=8):
    pred = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.001, num_partitions=num_partitions)
    data = build_materialized_dataset(spec, {pred: 0.0}, seed=0, selectivity=0.01)
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


class StallingProvider(InputProvider):
    """Misbehaving provider: waits forever with nothing in flight."""

    def initial_input(self, cluster):
        return [], False

    def evaluate(self, progress, cluster):
        return ProviderResponse.no_input()


class OneShotProvider(InputProvider):
    """Grabs everything on the first evaluation, then ends."""

    def initial_input(self, cluster):
        return [], False

    def evaluate(self, progress, cluster):
        if self.remaining_splits:
            return ProviderResponse.input_available(self.take_random(float("inf")))
        return ProviderResponse.end_of_input()


def providers_with(name, cls):
    registry = default_providers()
    registry.register(name, cls)
    return registry


class TestDynamicDriverEdges:
    def test_livelocked_provider_detected(self):
        pred, splits = build_splits()
        runner = LocalRunner(providers=providers_with("stall", StallingProvider))
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10,
            policy_name="LA", provider_name="stall",
        )
        with pytest.raises(JobError, match="livelocked"):
            runner.run(conf, splits)

    def test_empty_initial_input_then_growth(self):
        pred, splits = build_splits()
        runner = LocalRunner(providers=providers_with("oneshot", OneShotProvider))
        conf = make_sampling_conf(
            name="q", input_path="/t", predicate=pred, sample_size=10,
            policy_name="LA", provider_name="oneshot",
        )
        result = runner.run(conf, splits)
        assert result.outputs_produced == 10
        assert result.splits_processed == 8

    def test_result_metadata(self):
        pred, splits = build_splits()
        conf = make_sampling_conf(
            name="meta", input_path="/t", predicate=pred, sample_size=5,
            policy_name=None,
        )
        result = LocalRunner().run(conf, splits)
        assert result.name == "meta"
        assert result.job_id.startswith("local_")
        assert result.response_time == 0.0  # wall time is not modelled locally
