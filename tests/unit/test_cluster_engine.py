"""Unit tests for the SimulatedCluster facade."""

import gc
import weakref

import pytest

from repro import CostModel, SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.engine.scheduler import FairScheduler, FifoScheduler
from repro.errors import ClusterConfigError, JobConfError, JobError


@pytest.fixture()
def loaded_cluster():
    pred = predicate_for_skew(0)
    data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)
    cluster = SimulatedCluster.paper_cluster()
    cluster.load_dataset("/d", data)
    return cluster, pred


def sampling(pred, name="q", policy="LA"):
    return make_sampling_conf(
        name=name, input_path="/d", predicate=pred, sample_size=10_000,
        policy_name=policy,
    )


class TestConstruction:
    def test_defaults(self):
        cluster = SimulatedCluster(paper_topology())
        assert isinstance(cluster.jobtracker.scheduler, FifoScheduler)
        assert cluster.topology.total_map_slots == 40

    def test_scheduler_by_name(self):
        assert isinstance(
            SimulatedCluster(paper_topology(), scheduler="fair").jobtracker.scheduler,
            FairScheduler,
        )

    def test_scheduler_by_instance(self):
        scheduler = FairScheduler(locality_delay=2.0)
        cluster = SimulatedCluster(paper_topology(), scheduler=scheduler)
        assert cluster.jobtracker.scheduler is scheduler

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ClusterConfigError):
            SimulatedCluster(paper_topology(), scheduler="wat")

    def test_custom_cost_model_used(self):
        model = CostModel().scaled(2.0)
        cluster = SimulatedCluster(paper_topology(), cost_model=model)
        assert cluster.cost_model is model

    def test_paper_cluster_multiuser_slots(self):
        cluster = SimulatedCluster.paper_cluster(map_slots_per_node=16)
        assert cluster.topology.total_map_slots == 160


class TestExecution:
    def test_run_job_returns_result(self, loaded_cluster):
        cluster, pred = loaded_cluster
        result = cluster.run_job(sampling(pred))
        assert result.outputs_produced == 10_000
        assert cluster.results == [result]

    def test_sequential_run_job_calls_compose(self, loaded_cluster):
        cluster, pred = loaded_cluster
        first = cluster.run_job(sampling(pred, name="a"))
        second = cluster.run_job(sampling(pred, name="b"))
        assert second.submit_time >= first.finish_time
        assert len(cluster.results) == 2

    def test_submit_requires_existing_input(self, loaded_cluster):
        cluster, pred = loaded_cluster
        conf = make_sampling_conf(
            name="x", input_path="/missing", predicate=pred, sample_size=10,
            policy_name="LA",
        )
        from repro.errors import FileNotFoundInDfsError

        with pytest.raises(FileNotFoundInDfsError):
            cluster.submit(conf)

    def test_run_job_timeout_raises(self, loaded_cluster):
        cluster, pred = loaded_cluster
        with pytest.raises(JobError):
            cluster.run_job(sampling(pred), timeout=1.0)  # can't finish in 1s

    def test_run_until_advances_clock(self, loaded_cluster):
        cluster, _pred = loaded_cluster
        cluster.run(until=100.0)
        assert cluster.sim.now == 100.0

    def test_metrics_opt_in(self, loaded_cluster):
        cluster, pred = loaded_cluster
        cluster.start_metrics()
        cluster.submit(sampling(pred))
        cluster.run(until=120.0)
        assert cluster.metrics.num_samples >= 3

    def test_callback_receives_result(self, loaded_cluster):
        cluster, pred = loaded_cluster
        seen = []
        cluster.submit(sampling(pred), seen.append)
        cluster.run(until=1000.0)
        assert len(seen) == 1
        assert seen[0].outputs_produced == 10_000


class TestRelease:
    def test_cluster_that_ran_jobs_is_freed_without_the_cycle_collector(self):
        """A dropped cluster frees its simulator, JobTracker and JobClient
        by reference counting alone: the queued events call back into
        them, and TaskTrackers point back at their JobTracker."""
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cluster = SimulatedCluster.paper_cluster()
            cluster.load_dataset("/d", data)
            cluster.start_metrics()
            cluster.run_job(sampling(pred, name="a", policy="LA"))
            cluster.run_job(sampling(pred, name="b", policy="Hadoop"))
            assert cluster.sim.pending_events > 0  # the next dispatch, the poller
            parts = [cluster.sim, cluster.jobtracker, cluster.jobclient, cluster.dfs]
            refs = [weakref.ref(part) for part in parts]
            del cluster, parts
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_cluster_dropped_mid_job_is_freed_without_the_cycle_collector(self):
        """The JobTracker keeps an unfinished job's completion listeners,
        which close over the JobClient and the caller's callbacks: none
        may hold the cluster, and dropping it must release them."""
        pred = predicate_for_skew(0)
        data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cluster = SimulatedCluster.paper_cluster()
            cluster.load_dataset("/d", data)
            try:
                cluster.run_job(sampling(pred), timeout=1.0)
            except JobError:
                pass
            parts = [cluster, cluster.sim, cluster.jobtracker, cluster.jobclient]
            refs = [weakref.ref(part) for part in parts]
            del cluster, parts
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_cluster_dropped_mid_job_is_still_collectable(self):
        """A job still in flight leaves closures over the cluster in the
        simulator's queue; dropping the cluster must not make it immortal."""
        pred = predicate_for_skew(0)
        cluster = SimulatedCluster.paper_cluster()
        cluster.load_dataset(
            "/d", build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)
        )
        with pytest.raises(JobError):
            cluster.run_job(sampling(pred), timeout=1.0)
        ref = weakref.ref(cluster)
        del cluster
        gc.collect()
        assert ref() is None
