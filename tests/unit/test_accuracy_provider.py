"""Unit tests for the accuracy (error-bounded) demand rule and its provider."""

import random

import pytest

from repro.approx.estimators import AggregateSpec
from repro.approx.job import make_approx_conf
from repro.approx.demand import MIN_SPLITS_TO_STOP
from repro.cluster import paper_topology
from repro.core import ResponseKind, default_providers, paper_policies
from repro.core.protocol import ClusterStatus, JobProgress
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.errors import InputProviderError


def make_splits(num_partitions=32, seed=0, selectivity=0.2):
    pred = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.002, num_partitions=num_partitions)
    data = build_materialized_dataset(
        spec, {pred: 0.0}, seed=seed, selectivity=selectivity
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


def status(total=40, available=40):
    return ClusterStatus(
        total_map_slots=total,
        available_map_slots=available,
        running_map_tasks=0,
        queued_map_tasks=0,
    )


def progress(total=32, added=0, completed=0, pending=None, outputs=0):
    return JobProgress(
        job_id="j",
        total_splits_known=total,
        splits_added=added,
        splits_completed=completed,
        splits_pending=added - completed if pending is None else pending,
        records_processed=0,
        outputs_produced=outputs,
        records_pending=0,
    )


def accuracy_provider(
    *,
    aggregate=AggregateSpec("count", None),
    group_by=None,
    error_pct=5.0,
    confidence_pct=95.0,
    num_partitions=32,
    seed=0,
):
    pred, splits = make_splits(num_partitions, seed)
    conf = make_approx_conf(
        name="t",
        input_path="/t",
        predicate=pred,
        aggregate=aggregate,
        error_pct=error_pct,
        confidence_pct=confidence_pct,
        group_by=group_by,
        policy_name="LA",
    )
    provider = default_providers().create("accuracy")
    provider.initialize(
        splits, conf, paper_policies().get("LA"), random.Random(seed)
    )
    return provider


def drain_counts(provider, counts, start=0):
    """Mark splits observed with the given per-split match counts."""
    for i, count in enumerate(counts):
        provider.observe_split(
            f"s{start + i}", records=100, outputs=count, rows=None
        )


class TestSetupValidation:
    def test_registered_as_accuracy(self):
        assert "accuracy" in default_providers()

    def test_requires_error_target(self):
        pred, splits = make_splits()
        conf = make_approx_conf(
            name="t", input_path="/t", predicate=pred,
            aggregate=AggregateSpec("count", None), error_pct=1.0,
        )
        conf.params.pop("sampling.error.pct")
        provider = default_providers().create("accuracy")
        with pytest.raises(InputProviderError):
            provider.initialize(
                splits, conf, paper_policies().get("LA"), random.Random(0)
            )

    def test_rejects_stats_pruning(self):
        # Pruned splits would leave the FPC population without entering
        # the estimator, so an accuracy job keeps the uniform pool.
        pred, splits = make_splits()
        conf = make_approx_conf(
            name="t", input_path="/t", predicate=pred,
            aggregate=AggregateSpec("count", None), error_pct=1.0,
        )
        conf.set("sampling.stats.mode", "prune")
        provider = default_providers().create("accuracy")
        with pytest.raises(InputProviderError, match="sampling.stats.mode"):
            provider.initialize(
                splits, conf, paper_policies().get("LA"), random.Random(0)
            )

    def test_requires_input(self):
        pred, splits = make_splits()
        conf = make_approx_conf(
            name="t", input_path="/t", predicate=pred,
            aggregate=AggregateSpec("count", None), error_pct=1.0,
        )
        provider = default_providers().create("accuracy")
        with pytest.raises(InputProviderError):
            provider.initialize(
                [], conf, paper_policies().get("LA"), random.Random(0)
            )


class TestStoppingRule:
    def test_not_met_before_min_splits_floor(self):
        provider = accuracy_provider(error_pct=50.0)
        # Identical counts => zero width, but below the floor the target
        # must not be considered met.
        drain_counts(provider, [10] * (MIN_SPLITS_TO_STOP - 1))
        assert not provider.demand.target_met
        drain_counts(provider, [10], start=MIN_SPLITS_TO_STOP - 1)
        assert provider.demand.target_met

    def test_end_of_input_once_met(self):
        provider = accuracy_provider(error_pct=50.0)
        drain_counts(provider, [10] * MIN_SPLITS_TO_STOP)
        response = provider.evaluate(
            progress(added=MIN_SPLITS_TO_STOP, completed=MIN_SPLITS_TO_STOP),
            status(),
        )
        assert response.kind is ResponseKind.END_OF_INPUT
        assert not response.splits

    def test_waits_on_pending_work(self):
        provider = accuracy_provider(error_pct=1.0)
        drain_counts(provider, [10, 30, 20, 40])
        response = provider.evaluate(progress(added=8, completed=4), status())
        assert response.kind is ResponseKind.NO_INPUT_AVAILABLE

    def test_grabs_when_unmet_and_idle(self):
        provider = accuracy_provider(error_pct=1.0)
        before = provider.remaining_splits
        drain_counts(provider, [10, 30, 20, 40])
        response = provider.evaluate(progress(added=4, completed=4), status())
        assert response.kind is ResponseKind.INPUT_AVAILABLE
        assert len(response.splits) >= 1
        assert provider.remaining_splits == before - len(response.splits)

    def test_end_of_input_on_exhaustion_even_if_unmet(self):
        provider = accuracy_provider(error_pct=0.0001)
        while provider.remaining_splits:
            provider.take_random(8)
        response = provider.evaluate(progress(added=32, completed=20), status())
        assert response.kind is ResponseKind.END_OF_INPUT

    def test_zero_matches_forces_full_scan(self):
        # All-zero observations: the estimate is 0, which only an exact
        # (full) scan may certify, so the provider keeps grabbing.
        provider = accuracy_provider(error_pct=5.0)
        drain_counts(provider, [0] * 16)
        assert not provider.demand.target_met
        response = provider.evaluate(progress(added=16, completed=16), status())
        assert response.kind is ResponseKind.INPUT_AVAILABLE


class TestNeededSplitsProjection:
    def test_projection_respects_fpc(self):
        # 8 observed of 32, half-width ~4.7x the 1% target: the FPC-free
        # projection would demand ~180 splits (everything); the FPC-aware
        # inversion knows the width collapses near exhaustion and asks
        # for less than the whole remainder.
        provider = accuracy_provider(error_pct=1.0)
        rng = random.Random(5)
        drain_counts(provider, [rng.randint(280, 320) for _ in range(8)])
        needed = provider.demand._needed_splits()
        assert 1 <= needed < provider.remaining_splits

    def test_projection_unbounded_without_interval(self):
        provider = accuracy_provider(error_pct=1.0)
        drain_counts(provider, [0] * 10)
        assert provider.demand._needed_splits() == float("inf")

    def test_below_floor_asks_for_the_floor(self):
        provider = accuracy_provider(error_pct=5.0)
        drain_counts(provider, [10, 20])
        assert provider.demand._needed_splits() == float(MIN_SPLITS_TO_STOP - 2)


class TestObservation:
    def test_counts_only_suffices_for_ungrouped_count(self):
        provider = accuracy_provider()
        provider.observe_split("s0", records=100, outputs=7, rows=None)
        assert provider.demand.estimator.observed_splits == 1
        [g] = provider.demand.estimator.estimates()
        assert g.sample_count == 7

    def test_counts_only_rejected_for_sum(self):
        provider = accuracy_provider(aggregate=AggregateSpec("sum", "l_quantity"))
        with pytest.raises(InputProviderError):
            provider.observe_split("s0", records=100, outputs=7, rows=None)

    def test_counts_only_rejected_for_grouped_count(self):
        provider = accuracy_provider(group_by="l_returnflag")
        with pytest.raises(InputProviderError):
            provider.observe_split("s0", records=100, outputs=7, rows=None)

    def test_rows_fold_into_groups(self):
        provider = accuracy_provider(
            aggregate=AggregateSpec("sum", "l_quantity"), group_by="l_returnflag"
        )
        # Map output is one (group, (count, sum)) total per group.
        provider.observe_split(
            "s0", records=10, outputs=2,
            rows=[("A", (2, 5.0)), ("R", (1, 10.0))],
        )
        groups = {g.group: g for g in provider.demand.estimator.estimates()}
        assert groups["A"].sample_count == 2
        assert groups["A"].sample_sum == pytest.approx(5.0)
        assert groups["R"].sample_sum == pytest.approx(10.0)


class TestCiState:
    def test_ci_state_shape(self):
        provider = accuracy_provider(error_pct=5.0)
        state = provider.ci_state
        assert state["aggregate"] == "count"
        assert state["n"] == 0
        assert state["met"] is False
        assert state["estimate"] is None and state["half_width"] is None

    def test_ci_state_reports_worst_group(self):
        provider = accuracy_provider(group_by="l_returnflag", error_pct=5.0)
        for i in range(10):
            noisy = 5 + 10 * (i % 2)
            provider.observe_split(
                f"s{i}", records=100, outputs=2,
                rows=[("steady", (50, 50.0)), ("noisy", (noisy, float(noisy)))],
            )
        state = provider.ci_state
        assert state["group"] == "noisy"
        assert state["n"] == 10
        assert state["met"] is False

    def test_summary_lists_groups(self):
        provider = accuracy_provider(error_pct=50.0)
        drain_counts(provider, [10] * 8)
        summary = provider.approx_summary()
        assert summary["aggregate"] == "count"
        assert summary["observed_splits"] == 8
        assert summary["total_splits"] == 32
        assert summary["target_met"] is True
        [group] = summary["groups"]
        assert group["estimate"] == pytest.approx(32 * 10.0)
