"""A telemetry hub sees exactly the runs whose recorder it is attached to.

The hub's only input is the event stream of the recorders it attaches
to, listener-only samples (``cluster_status``, ``worker_delta``)
included. A run with no recorder, or with a recorder the hub is not
attached to, must leave no trace in it: no phantom job from worker
deltas, no slot samples from another cluster's dispatch passes. And the
live samples stay off the log: a traced run's ``raw_events`` are the
same whoever listens.
"""

import pytest

from repro import LocalRunner, SimulatedCluster, make_sampling_conf, make_scan_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    build_profiled_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.obs import TelemetryHub, TraceRecorder


@pytest.fixture(scope="module")
def mmap_splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("mmapds")
    pred = predicate_for_skew(0)
    data = build_materialized_dataset(
        dataset_spec_for_scale(0.002, num_partitions=16), {pred: 0.0},
        seed=0, selectivity=0.01,
        layout="mmap", mmap_path=str(root / "lineitem.rcs"),
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", data)
    return pred, dfs.open_splits("/t")


@pytest.fixture(scope="module")
def profiled():
    pred = predicate_for_skew(0)
    return pred, build_profiled_dataset(dataset_spec_for_scale(5), {pred: 0.0}, seed=0)


def static_conf(pred):
    """The paper's Hadoop baseline: a static job over the whole input."""
    return make_sampling_conf(
        name="q", input_path="/d", predicate=pred, sample_size=10_000,
        policy_name=None,
    )


def test_untraced_process_scan_leaves_no_job(mmap_splits):
    pred, splits = mmap_splits
    conf = make_scan_conf(name="q", input_path="/t", predicate=pred)
    with TelemetryHub() as hub:
        hub.attach(TraceRecorder())
        with LocalRunner(map_executor="process", map_workers=2) as runner:
            result = runner.run(conf, splits)
        snapshot = hub.snapshot()
    assert result.records_processed > 0
    assert snapshot["jobs"] == {}


def test_untraced_cluster_leaves_no_slot_samples(profiled):
    pred, data = profiled
    with TelemetryHub() as hub:
        hub.attach(TraceRecorder())
        cluster = SimulatedCluster.paper_cluster(seed=0)
        cluster.load_dataset("/d", data)
        cluster.run_job(static_conf(pred))
        snapshot = hub.snapshot()
    assert snapshot["slots"]["series"] == []
    assert snapshot["slots"]["total"] is None


def test_traced_static_job_samples_slots_off_the_log(profiled):
    pred, data = profiled
    trace = TraceRecorder()
    with TelemetryHub() as hub:
        hub.attach(trace)
        cluster = SimulatedCluster.paper_cluster(seed=0, trace=trace)
        cluster.load_dataset("/d", data)
        cluster.run_job(static_conf(pred))
        snapshot = hub.snapshot()
    slots = snapshot["slots"]
    # A static job evaluates no provider, so every sample here came from
    # the JobTracker's cluster_status after a dispatch pass.
    assert slots["total"] == 40
    assert max(value for _time, value in slots["series"]) == 1.0
    assert "cluster_status" not in {event["type"] for event in trace.raw_events}
