"""Failure injection: task retries and job kills under the dynamic model."""

import pytest

from repro import SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.core import InputProvider, default_providers
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.engine.failures import FailFirstAttempts, FailureInjector
from repro.engine.job import JobState
from repro.errors import ClusterConfigError


def make_cluster(injector, seed=0):
    return SimulatedCluster(
        paper_topology(), failure_injector=injector, seed=seed
    )


def sampling_conf(pred, policy="LA", name="q", k=10_000):
    return make_sampling_conf(
        name=name, input_path="/d", predicate=pred, sample_size=k,
        policy_name=policy,
    )


@pytest.fixture()
def dataset():
    pred = predicate_for_skew(0)
    return pred, build_profiled_dataset(
        dataset_spec_for_scale(5), {pred: 0.0}, seed=1
    )


class TestInjectorModels:
    def test_bernoulli_probability_bounds(self):
        with pytest.raises(ClusterConfigError):
            FailureInjector(map_failure_probability=1.5)
        with pytest.raises(ClusterConfigError):
            FailureInjector(map_failure_probability=-0.1)

    def test_zero_probability_never_fails(self, dataset):
        pred, data = dataset
        injector = FailureInjector(map_failure_probability=0.0)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred))
        assert result.state is JobState.SUCCEEDED
        assert result.failed_map_attempts == 0
        assert injector.injected_failures == 0

    def test_flaky_nodes_scope(self, dataset):
        pred, data = dataset
        injector = FailureInjector(
            map_failure_probability=1.0, flaky_nodes={"node99"}  # not in cluster
        )
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred))
        assert result.state is JobState.SUCCEEDED
        assert result.failed_map_attempts == 0


class TestRetries:
    def test_job_survives_random_failures(self, dataset):
        pred, data = dataset
        injector = FailureInjector(map_failure_probability=0.15, seed=3)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred, policy="Hadoop"))
        assert result.state is JobState.SUCCEEDED
        assert result.failed_map_attempts > 0
        # Full sample despite retries, and no double counting.
        assert result.outputs_produced == 10_000
        assert result.splits_processed == 40
        assert result.records_processed == data.total_records

    def test_first_attempt_failures_retry_every_task(self, dataset):
        pred, data = dataset
        injector = FailFirstAttempts(attempts_to_fail=1)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred, policy="Hadoop"))
        assert result.state is JobState.SUCCEEDED
        assert result.failed_map_attempts == 40  # one failure per split
        assert result.outputs_produced == 10_000

    def test_retries_slow_the_job_down(self, dataset):
        pred, data = dataset
        clean_cluster = make_cluster(FailureInjector())
        clean_cluster.load_dataset("/d", data)
        clean = clean_cluster.run_job(sampling_conf(pred, policy="Hadoop"))

        flaky_cluster = make_cluster(FailFirstAttempts(attempts_to_fail=1))
        flaky_cluster.load_dataset("/d", data)
        flaky = flaky_cluster.run_job(sampling_conf(pred, policy="Hadoop"))
        assert flaky.response_time > clean.response_time

    def test_dynamic_job_provider_copes_with_failures(self, dataset):
        """A failed split stays pending; the provider must not lose track
        of it or overshoot the sample."""
        pred, data = dataset
        injector = FailureInjector(map_failure_probability=0.2, seed=5)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred, policy="C"))
        assert result.state is JobState.SUCCEEDED
        assert result.outputs_produced == 10_000
        assert result.failed_map_attempts > 0


class TestRetryAccountingAcrossScanModes:
    """Pins the failure-model invariants the module docstring claims:
    a failed split re-enters the pending queue as a fresh attempt, no
    counter double-counts across retries — including the records the
    real scan engine reads, in all three scan modes — and the Input
    Provider sees the split as pending throughout."""

    @pytest.fixture()
    def materialized(self):
        pred = predicate_for_skew(0)
        data = build_materialized_dataset(
            dataset_spec_for_scale(0.001, num_partitions=8), {pred: 0.0},
            seed=2, selectivity=0.05,
        )
        return pred, data

    def _run(self, pred, data, *, injector, mode, k=20):
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        conf = sampling_conf(pred, policy="Hadoop", k=k)
        conf.set("scan.mode", mode)
        return cluster.run_job(conf)

    @pytest.mark.parametrize("mode", ["interpreted", "compiled", "batch"])
    def test_counters_never_double_count_across_retries(self, materialized, mode):
        pred, data = materialized
        clean = self._run(pred, data, injector=FailureInjector(), mode=mode)
        flaky = self._run(pred, data, injector=FailFirstAttempts(1), mode=mode)
        assert flaky.state is JobState.SUCCEEDED
        assert flaky.failed_map_attempts == 8  # one failure per split
        # Counters identical to the clean run: a failed attempt executes
        # no mapper, so retried splits fold their records/outputs into
        # the job's registry exactly once.
        assert flaky.records_processed == clean.records_processed
        assert flaky.map_outputs_produced == clean.map_outputs_produced
        assert flaky.outputs_produced == clean.outputs_produced
        assert flaky.splits_processed == clean.splits_processed == 8

    def test_retry_accounting_identical_across_modes(self, materialized):
        pred, data = materialized
        results = {
            mode: self._run(pred, data, injector=FailFirstAttempts(1), mode=mode)
            for mode in ("interpreted", "compiled", "batch")
        }
        records = {r.records_processed for r in results.values()}
        outputs = {r.map_outputs_produced for r in results.values()}
        assert len(records) == 1
        assert len(outputs) == 1

    def test_provider_sees_failed_split_as_pending(self, dataset):
        observed = []

        class RecordingProvider(InputProvider):
            def evaluate(self, progress, cluster):
                observed.append(progress)
                return super().evaluate(progress, cluster)

        registry = default_providers()
        registry.register("recording", RecordingProvider)
        pred, data = dataset
        cluster = SimulatedCluster(
            paper_topology(),
            failure_injector=FailFirstAttempts(attempts_to_fail=1),
            providers=registry,
            seed=0,
        )
        cluster.load_dataset("/d", data)
        conf = make_sampling_conf(
            name="q", input_path="/d", predicate=pred, sample_size=10_000,
            policy_name="LA", provider_name="recording",
        )
        result = cluster.run_job(conf)
        assert result.state is JobState.SUCCEEDED
        assert result.failed_map_attempts > 0
        assert observed  # the provider was actually consulted
        for progress in observed:
            # A failed split never leaves the pending set: the provider's
            # view stays consistent at every evaluation point.
            assert progress.splits_pending == (
                progress.splits_added - progress.splits_completed
            )
            assert progress.splits_pending >= 0
            assert progress.records_pending >= 0
        assert result.outputs_produced == 10_000


class TestJobKill:
    def test_exhausted_attempts_kill_the_job(self, dataset):
        pred, data = dataset
        injector = FailFirstAttempts(attempts_to_fail=10)  # > max attempts (4)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        result = cluster.run_job(sampling_conf(pred, policy="Hadoop"))
        assert result.state is JobState.KILLED
        assert result.outputs_produced == 0

    def test_max_attempts_configurable(self, dataset):
        pred, data = dataset
        injector = FailFirstAttempts(attempts_to_fail=5)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        conf = sampling_conf(pred, policy="Hadoop")
        conf.set("mapred.map.max.attempts", 6)  # one more than failures
        result = cluster.run_job(conf)
        assert result.state is JobState.SUCCEEDED

    def test_cluster_usable_after_a_killed_job(self, dataset):
        pred, data = dataset
        injector = FailFirstAttempts(attempts_to_fail=10)
        cluster = make_cluster(injector)
        cluster.load_dataset("/d", data)
        killed = cluster.run_job(sampling_conf(pred, name="doomed"))
        assert killed.state is JobState.KILLED
        # Disable failures and run another job on the same cluster.
        injector.attempts_to_fail = 0
        ok = cluster.run_job(sampling_conf(pred, name="after"))
        assert ok.state is JobState.SUCCEEDED
        assert ok.outputs_produced == 10_000
