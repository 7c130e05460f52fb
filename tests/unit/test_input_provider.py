"""Unit tests for the Input Provider protocol and its built-in compositions."""

import math
import random

import pytest

from repro.cluster import paper_topology
from repro.core import (
    InputProvider,
    ProviderResponse,
    ResponseKind,
    default_providers,
    paper_policies,
)
from repro.core.pool import SplitPool
from repro.core.protocol import ClusterStatus, JobProgress
from repro.data import build_materialized_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.dfs import DistributedFileSystem
from repro.core.sampling_job import make_sampling_conf
from repro.errors import InputProviderError


def make_splits(num_partitions=16, seed=0):
    pred = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.0005, num_partitions=num_partitions)
    data = build_materialized_dataset(spec, {pred: 0.0}, seed=seed, selectivity=0.01)
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


def status(total=40, available=40, running=0, queued=0):
    return ClusterStatus(
        total_map_slots=total,
        available_map_slots=available,
        running_map_tasks=running,
        queued_map_tasks=queued,
    )


def progress(
    total=16,
    added=0,
    completed=0,
    records=0,
    outputs=0,
    pending_records=0,
):
    return JobProgress(
        job_id="j",
        total_splits_known=total,
        splits_added=added,
        splits_completed=completed,
        splits_pending=added - completed,
        records_processed=records,
        outputs_produced=outputs,
        records_pending=pending_records,
    )


def sampling_provider(policy_name="LA", k=100, num_partitions=16, seed=0):
    pred, splits = make_splits(num_partitions, seed)
    conf = make_sampling_conf(
        name="t", input_path="/t", predicate=pred, sample_size=k,
        policy_name=policy_name,
    )
    provider = InputProvider()
    provider.initialize(splits, conf, paper_policies().get(policy_name), random.Random(seed))
    return provider


class TestProviderResponse:
    def test_constructors(self):
        assert ProviderResponse.end_of_input().kind is ResponseKind.END_OF_INPUT
        assert ProviderResponse.no_input().kind is ResponseKind.NO_INPUT_AVAILABLE

    def test_input_available_requires_splits(self):
        with pytest.raises(InputProviderError):
            ProviderResponse.input_available([])

    def test_non_input_cannot_carry_splits(self):
        _pred, splits = make_splits(4)
        with pytest.raises(InputProviderError):
            ProviderResponse(ResponseKind.END_OF_INPUT, tuple(splits))


class TestBaseProvider:
    def test_use_before_initialize_rejected(self):
        provider = InputProvider()
        with pytest.raises(InputProviderError):
            provider.initial_input(status())

    def test_double_initialize_rejected(self):
        provider = sampling_provider()
        with pytest.raises(InputProviderError):
            provider.initialize([], provider.conf, provider.policy, random.Random(0))

    def test_take_random_exhausts_pool(self):
        provider = sampling_provider(num_partitions=8)
        taken = provider.take_random(math.inf)
        assert len(taken) == 8
        assert provider.remaining_splits == 0
        assert provider.take_random(5) == []

    def test_take_random_unique(self):
        provider = sampling_provider(num_partitions=16)
        taken = provider.take_random(10)
        assert len({s.split_id for s in taken}) == 10
        assert provider.remaining_splits == 6

    def test_take_random_deterministic_under_seed(self):
        a = sampling_provider(seed=5).take_random(4)
        b = sampling_provider(seed=5).take_random(4)
        assert [s.split_id for s in a] == [s.split_id for s in b]

    def test_take_random_nan_rejected(self):
        # Regression: NaN compares false against everything, so it used
        # to fall through to int(nan) deep in split selection.
        provider = sampling_provider()
        with pytest.raises(InputProviderError):
            provider.take_random(float("nan"))

    def test_take_all_drains_pool(self):
        provider = sampling_provider(num_partitions=8)
        taken = provider.take_all()
        assert len(taken) == 8
        assert provider.remaining_splits == 0
        assert provider.take_all() == []

    def test_take_all_matches_legacy_infinite_grab(self):
        # The explicit take-everything path must consume the RNG exactly
        # like the take_random(inf) spelling it replaced, so seeds keep
        # producing byte-identical samples.
        a = sampling_provider(seed=7).take_all()
        b = sampling_provider(seed=7).take_random(math.inf)
        assert [s.split_id for s in a] == [s.split_id for s in b]


class BrokenLimitPolicy:
    """Stub policy whose max_grab returns whatever the test wants."""

    name = "broken"

    def __init__(self, limit):
        self._limit = limit

    def max_grab(self, *, total_slots, available_slots):
        return self._limit


def provider_with_policy(policy):
    pred, splits = make_splits()
    conf = make_sampling_conf(
        name="t", input_path="/t", predicate=pred, sample_size=100,
        policy_name="LA",
    )
    provider = InputProvider()
    provider.initialize(splits, conf, policy, random.Random(0))
    return provider


class TestGrabLimitValidation:
    """The policy boundary rejects malformed grab limits up front instead
    of silently selecting nothing (negative) or crashing later (NaN)."""

    @pytest.mark.parametrize("limit", [float("nan"), -1, -0.5, "eight", None, True])
    def test_malformed_limits_rejected(self, limit):
        provider = provider_with_policy(BrokenLimitPolicy(limit))
        with pytest.raises(InputProviderError, match="broken"):
            provider.grab_limit(status())

    @pytest.mark.parametrize("limit", [0, 4, 2.5, math.inf])
    def test_well_formed_limits_pass_through(self, limit):
        provider = provider_with_policy(BrokenLimitPolicy(limit))
        assert provider.grab_limit(status()) == limit


class TestStaticProvider:
    def test_takes_everything_up_front(self):
        pred, splits = make_splits(8)
        conf = make_sampling_conf(
            name="t", input_path="/t", predicate=pred, sample_size=10,
            policy_name="LA", provider_name="static",
        )
        provider = default_providers().create("static")
        # C caps a grab at 4 splits; all-input demand ignores the budget.
        provider.initialize(splits, conf, paper_policies().get("C"), random.Random(0))
        taken, complete = provider.initial_input(status())
        assert len(taken) == 8
        assert complete is True
        response = provider.evaluate(progress(total=8, added=8), status())
        assert response.kind is ResponseKind.END_OF_INPUT


class TestGrabSource:
    """The GrabLimit expression a grant is held to, as traces record it."""

    @staticmethod
    def provider(name, policy_name):
        pred, splits = make_splits(8)
        conf = make_sampling_conf(
            name="t", input_path="/t", predicate=pred, sample_size=10,
            policy_name=policy_name, provider_name=name,
        )
        provider = default_providers().create(name)
        provider.initialize(splits, conf, paper_policies().get(policy_name), random.Random(0))
        return provider

    @staticmethod
    def source(policy_name):
        return paper_policies().get(policy_name).grab_limit.source

    def test_sampling_reports_its_own_policy(self):
        assert self.provider("sampling", "C").grab_source(status()) == self.source("C")

    def test_static_reports_infinity(self):
        assert self.provider("static", "C").grab_source(status()) == "infinity"

    def test_adaptive_reports_the_ladder_rung(self):
        provider = self.provider("adaptive", "C")
        # Idle cluster: the ladder's top rung; saturated: its bottom one.
        assert provider.grab_source(status()) == self.source("HA")
        assert provider.grab_source(status(available=0)) == self.source("C")


class TestSamplingProviderInitialInput:
    def test_initial_grab_respects_grab_limit(self):
        # LA on an idle 40-slot cluster: 0.2 * 40 = 8 splits.
        provider = sampling_provider("LA", num_partitions=16)
        taken, complete = provider.initial_input(status())
        assert len(taken) == 8
        assert complete is False

    def test_hadoop_policy_takes_all_and_completes(self):
        provider = sampling_provider("Hadoop", num_partitions=16)
        taken, complete = provider.initial_input(status())
        assert len(taken) == 16
        assert complete is True

    def test_saturated_cluster_conservative_gets_nothing(self):
        provider = sampling_provider("C", num_partitions=16)
        taken, complete = provider.initial_input(status(available=0))
        assert taken == []
        assert complete is False

    def test_missing_sample_size_rejected(self):
        pred, splits = make_splits(4)
        conf = make_sampling_conf(
            name="t", input_path="/t", predicate=pred, sample_size=10,
            policy_name="LA",
        )
        del conf.params["sampling.size"]
        provider = InputProvider()
        with pytest.raises(InputProviderError):
            provider.initialize(splits, conf, paper_policies().get("LA"), random.Random(0))


class TestSamplingProviderEvaluate:
    def test_end_of_input_when_target_reached(self):
        provider = sampling_provider(k=100)
        response = provider.evaluate(
            progress(added=4, completed=4, records=1000, outputs=100), status()
        )
        assert response.kind is ResponseKind.END_OF_INPUT

    def test_end_of_input_when_pool_exhausted(self):
        provider = sampling_provider(k=1000, num_partitions=4)
        provider.take_random(math.inf)
        response = provider.evaluate(
            progress(total=4, added=4, completed=4, records=100, outputs=1), status()
        )
        assert response.kind is ResponseKind.END_OF_INPUT

    def test_waits_when_pending_covers_shortfall(self):
        provider = sampling_provider(k=100)
        # 50 found; 50,000 pending records at selectivity 0.005 -> 250 expected.
        response = provider.evaluate(
            progress(added=8, completed=4, records=10_000, outputs=50,
                     pending_records=50_000),
            status(),
        )
        assert response.kind is ResponseKind.NO_INPUT_AVAILABLE

    def test_grabs_estimated_need_when_informed(self):
        provider = sampling_provider(k=100, num_partitions=16)
        # selectivity 0.005, 2500 records/split -> 12.5 matches per split.
        # shortfall 50 -> 10,000 records -> 4 splits; LA cap on idle = 8.
        response = provider.evaluate(
            progress(added=4, completed=4, records=10_000, outputs=50), status()
        )
        assert response.kind is ResponseKind.INPUT_AVAILABLE
        assert len(response.splits) == 4

    def test_grab_capped_by_policy_limit(self):
        provider = sampling_provider("C", k=10_000, num_partitions=16)
        # C on idle cluster: 0.1 * 40 = 4.
        response = provider.evaluate(
            progress(added=4, completed=4, records=10_000, outputs=1), status()
        )
        assert response.kind is ResponseKind.INPUT_AVAILABLE
        assert len(response.splits) == 4

    def test_no_signal_grabs_to_limit(self):
        provider = sampling_provider("LA", k=100, num_partitions=16)
        # Zero matches so far -> unbounded need -> grab = LA limit (8).
        response = provider.evaluate(
            progress(added=4, completed=4, records=10_000, outputs=0), status()
        )
        assert response.kind is ResponseKind.INPUT_AVAILABLE
        assert len(response.splits) == 8

    def test_waits_when_no_slots_for_conservative(self):
        provider = sampling_provider("C", k=100)
        response = provider.evaluate(
            progress(added=4, completed=4, records=10_000, outputs=1),
            status(available=0),
        )
        assert response.kind is ResponseKind.NO_INPUT_AVAILABLE

    def test_estimator_tracks_progress(self):
        provider = sampling_provider(k=10_000)
        provider.evaluate(
            progress(added=4, completed=4, records=10_000, outputs=5), status()
        )
        assert provider.demand.estimator.estimate == pytest.approx(0.0005)


class TestProviderRegistry:
    def test_defaults(self):
        registry = default_providers()
        assert "sampling" in registry
        assert "static" in registry
        assert isinstance(registry.create("sampling"), InputProvider)

    def test_unknown_rejected(self):
        with pytest.raises(InputProviderError):
            default_providers().create("nope")

    def test_custom_registration(self):
        class Custom(InputProvider):
            def evaluate(self, progress, cluster):
                return ProviderResponse.end_of_input()

        registry = default_providers()
        registry.register("custom", Custom)
        assert isinstance(registry.create("custom"), Custom)
        with pytest.raises(InputProviderError):
            registry.register("custom", Custom)
        registry.register("custom", Custom, replace=True)


class FileOrderPool(SplitPool):
    """Takes splits in file order instead of at random."""

    def _choose(self, count):
        remaining = self.remaining
        return sorted(range(len(remaining)), key=lambda i: remaining[i].index)[:count]


class TestComposition:
    def test_every_registry_name_is_a_composed_provider(self):
        registry = default_providers()
        assert registry.names() == ["accuracy", "adaptive", "sampling", "static", "stats"]
        for name in registry.names():
            assert type(registry.create(name)) is InputProvider

    def test_pool_swap_keeps_demand_and_budget(self):
        pred, splits = make_splits(16)
        conf = make_sampling_conf(
            name="t", input_path="/t", predicate=pred, sample_size=100,
            policy_name="LA",
        )
        provider = InputProvider(pool=lambda splits, conf, rng: FileOrderPool(splits, rng))
        provider.initialize(splits, conf, paper_policies().get("LA"), random.Random(0))
        taken, complete = provider.initial_input(status())
        # LA's GrabLimit (8 of 40 idle slots) still caps the first grab.
        assert [s.index for s in taken] == list(range(8))
        assert complete is False
        response = provider.evaluate(
            progress(added=8, completed=8, records=20_000, outputs=80), status()
        )
        # The LIMIT-k demand still sizes the grab: at selectivity 0.004
        # and 2,500 records per split, 2 splits cover the last 20.
        assert [s.index for s in response.splits] == [8, 9]

    def test_reporting_defaults_without_statistics_or_intervals(self):
        provider = sampling_provider()
        assert provider.splits_pruned == 0
        assert provider.ci_state is None
        assert provider.approx_summary() is None
