"""The seams the query benchmark's tracer times the program at.

``benchmarks/query/tracing.py`` wraps program functions under the names
their callers look them up by, and ``tracing.targets()`` silently drops
a name that no longer exists, so a refactor could take a layer out of
the per-layer breakdown without any benchmark test noticing. These
tests pin a target for every layer, and the two scan seams' call
pattern that the breakdown reads: ``runtime.run_map_task`` runs once
per inline split and never for a shipped one, and
``runtime.materialize_outputs`` once per shipped split and never for an
inline one, with the worker's ``ScanTaskResult`` as its second argument
(the tracer's ``_materialize`` hook reads its timings).
"""

import pytest

import repro.core.sampling_job as sampling_job
import repro.engine.runtime as runtime
from benchmarks.query import tracing
from repro import LocalRunner, make_sampling_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.dfs import DistributedFileSystem
from repro.scan.proc import ScanTaskResult


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """(a LIMIT-k sampling conf, the mmap splits it runs over)."""
    predicate = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.001, num_partitions=8)
    dataset = build_materialized_dataset(
        spec, {predicate: 0.0}, seed=0, selectivity=0.01, layout="mmap",
        mmap_path=str(tmp_path_factory.mktemp("seams") / "t.rcs"),
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", dataset)
    conf = make_sampling_conf(
        name="q", input_path="/t", predicate=predicate, sample_size=20,
        policy_name="LA",
    )
    return conf, dfs.open_splits("/t")


def traced_run(conf, splits, **runner_args):
    """One job as one traced request, on a runner set up as the query
    benchmark's workloads set theirs up; returns the tracer and the
    result."""
    tracer = tracing.Tracer()
    with LocalRunner(seed=7, **runner_args) as runner:
        with tracer.installed():
            tracer.begin(0)
            result = runner.run(conf, splits)
            tracer.end()
    return tracer, result


def test_every_layer_has_a_target():
    spans = {span for _owner, _attribute, span, _hook in tracing.targets()}
    assert spans == set(tracing.LAYERS)


def test_compile_batch_matcher_is_wrapped_where_the_mappers_call_it():
    wrapped = {(owner, attribute) for owner, attribute, _span, _hook in tracing.targets()}
    assert (sampling_job, "compile_batch_matcher") in wrapped


def test_inline_splits_run_map_task_once_each(job):
    conf, splits = job
    tracer, result = traced_run(conf, splits, map_executor="thread", map_workers=1)
    assert tracer.calls["scan.map_task"] == result.splits_processed
    assert tracer.calls["scan.materialize"] == 0
    assert tracer.calls["scan.codegen"] == result.splits_processed
    assert tracer.counts["scan.rows"] == result.records_processed


def test_shipped_splits_materialize_once_each(job, monkeypatch):
    conf, splits = job
    materialize = runtime.materialize_outputs
    shipped = []

    def recording(*args, **kwargs):
        shipped.append(args[1])
        return materialize(*args, **kwargs)

    monkeypatch.setattr(runtime, "materialize_outputs", recording)
    tracer, result = traced_run(conf, splits, map_executor="process", map_workers=2)
    assert tracer.calls["scan.map_task"] == 0
    assert tracer.calls["scan.materialize"] == result.splits_processed
    assert all(type(outcome) is ScanTaskResult for outcome in shipped)
    assert len(shipped) == result.splits_processed
    assert sum(outcome.scanned for outcome in shipped) == result.records_processed
    assert tracer.counts["scan.worker_task_s"] > 0
