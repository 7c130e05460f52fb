"""Unit tests for the process map-worker protocol (``repro.scan.proc``).

These call :func:`run_scan_task` in process, the way a worker does, so
the packing contract is checked without worker processes: a packed task
over several partitions answers exactly what one single-partition task
each would, with batch-sized and telemetry-sized chunks alike, its
per-split timings share out the task's wall time, a worker decodes a
string column only for partitions it scans again, and its matcher cache
keys on the constant pool as well as the source. The worker loop,
:func:`serve`, runs on a thread over a real pipe.
"""

import dataclasses
import itertools
import multiprocessing
import pickle
import threading

import pytest

from repro import make_scan_conf
from repro.cluster import paper_topology
from repro.data import (
    build_materialized_dataset,
    dataset_spec_for_scale,
    predicate_for_skew,
)
from repro.data.predicates import ColumnCompare
from repro.dfs import DistributedFileSystem
from repro.scan import proc
from repro.scan.engine import DEFAULT_BATCH_SIZE
from repro.scan.mmapstore import open_mmap_dataset
from repro.scan.proc import (
    MATCHER_CACHE_SIZE,
    ScanTask,
    ScanTaskResult,
    WorkerDelta,
    run_scan_task,
    serve,
)

LIMITS = (None, 0, 1, 4)


@pytest.fixture(scope="module")
def refs_and_spec(tmp_path_factory):
    """(mmap refs of 8 partitions, the scan job's task spec)."""
    root = tmp_path_factory.mktemp("procds")
    predicate = predicate_for_skew(0)
    spec = dataset_spec_for_scale(0.001, num_partitions=8)  # 6,000 rows
    dataset = build_materialized_dataset(
        spec, {predicate: 0.0}, seed=0, selectivity=0.01,
        layout="mmap", mmap_path=str(root / "t.rcs"),
    )
    dfs = DistributedFileSystem(paper_topology().storage_locations())
    dfs.write_dataset("/t", dataset)
    refs = tuple(split.mmap_ref for split in dfs.open_splits("/t"))
    conf = make_scan_conf(name="q", input_path="/t", predicate=predicate)
    return refs, conf.mapper_factory().scan_task_spec()


@pytest.fixture(autouse=True)
def matchers(monkeypatch):
    """An empty matcher cache for each test, as a fresh worker has."""
    cache = {}
    monkeypatch.setattr(proc, "_MATCHERS", cache)
    return cache


def answers(results):
    return [(r.partition, r.scanned, r.hits) for r in results]


def telemetry_task(refs, spec):
    """A task as the runtime builds it with a hub live, in 7-row chunks."""
    return ScanTask(refs=refs, spec=spec, job_id="j", chunk_rows=7)


class TestPackedEqualsSingle:
    @pytest.mark.parametrize("limit", LIMITS)
    def test_packed_task_equals_one_task_per_partition(self, refs_and_spec, limit):
        refs, spec = refs_and_spec
        spec = dataclasses.replace(spec, limit=limit)
        packed = run_scan_task(ScanTask(refs=refs, spec=spec))
        singles = [run_scan_task(ScanTask(refs=(ref,), spec=spec))[0] for ref in refs]
        assert answers(packed) == answers(singles)
        assert [r.partition for r in packed] == [ref.partition for ref in refs]
        for result, ref in zip(packed, refs):
            assert result.hits == sorted(result.hits)
            assert all(0 <= hit < ref.row_count for hit in result.hits)
            if limit:
                assert len(result.hits) <= limit

    def test_limit_applies_per_partition(self, refs_and_spec):
        refs, spec = refs_and_spec
        full = run_scan_task(ScanTask(refs=refs, spec=spec))
        capped = run_scan_task(
            ScanTask(refs=refs, spec=dataclasses.replace(spec, limit=1))
        )
        for whole, first in zip(full, capped):
            assert whole.hits, "every partition of the fixture has a match"
            # Each partition exits right after its own first match.
            assert first.hits == whole.hits[:1]
            assert first.scanned == whole.hits[0] + 1

    def test_limit_zero_scans_everything(self, refs_and_spec):
        refs, spec = refs_and_spec
        results = run_scan_task(
            ScanTask(refs=refs, spec=dataclasses.replace(spec, limit=0))
        )
        assert [r.scanned for r in results] == [ref.row_count for ref in refs]


class TestTelemetryPath:
    @pytest.mark.parametrize("limit", LIMITS)
    def test_chunked_path_equals_single_call(self, refs_and_spec, limit):
        refs, spec = refs_and_spec
        spec = dataclasses.replace(spec, limit=limit)
        deltas = []
        chunked = run_scan_task(telemetry_task(refs, spec), deltas.append)
        assert deltas, "the telemetry path never flushed"
        assert {d.partition for d in deltas} == {ref.partition for ref in refs}
        single = run_scan_task(telemetry_task(refs, spec))
        assert answers(chunked) == answers(single)

    def test_deltas_are_cumulative_per_partition(self, refs_and_spec):
        refs, spec = refs_and_spec
        deltas = []
        results = run_scan_task(telemetry_task(refs, spec), deltas.append)
        assert all(isinstance(d, WorkerDelta) for d in deltas)
        for result in results:
            flushed = [d for d in deltas if d.partition == result.partition]
            rows = [d.rows_scanned for d in flushed]
            assert rows == sorted(rows)
            assert rows[-1] == result.scanned
            assert [d.chunk_rows for d in flushed] == [
                after - before for before, after in zip([0, *rows], rows)
            ]

    def test_no_job_id_keeps_single_call_path(self, refs_and_spec):
        refs, spec = refs_and_spec
        deltas = []
        results = run_scan_task(ScanTask(refs=refs, spec=spec), deltas.append)
        assert deltas == []
        assert answers(results) == answers(run_scan_task(telemetry_task(refs, spec)))


def exchange(task):
    """Serve ``task`` on a thread over a real pipe, as a worker does;
    return every message the worker sent, in order."""
    parent, child = multiprocessing.Pipe()
    worker = threading.Thread(target=serve, args=(child,))
    worker.start()
    try:
        parent.send_bytes(pickle.dumps(task))
        messages = []
        while not messages or type(messages[-1]) is WorkerDelta:
            messages.append(pickle.loads(parent.recv_bytes()))
    finally:
        parent.close()
        worker.join(timeout=10)
    assert not worker.is_alive(), "the worker loop did not end at end of file"
    child.close()
    return messages


class TestPipeProtocol:
    def test_deltas_precede_results_on_the_pipe(self, refs_and_spec):
        """A task's deltas all arrive before its results, so none can
        reach the hub after the results it would count twice."""
        refs, spec = refs_and_spec
        task = telemetry_task(refs, spec)
        *deltas, results = exchange(task)
        assert deltas and all(type(d) is WorkerDelta for d in deltas)
        assert all(type(r) is ScanTaskResult for r in results)
        assert answers(results) == answers(run_scan_task(task))
        assert {d.partition: d.rows_scanned for d in deltas} == {
            r.partition: r.scanned for r in results
        }

    def test_a_task_without_job_id_sends_only_its_results(self, refs_and_spec):
        refs, spec = refs_and_spec
        task = ScanTask(refs=refs, spec=spec)
        [results] = exchange(task)
        assert answers(results) == answers(run_scan_task(task))


def quantity_task(refs, value):
    conf = make_scan_conf(
        name="q", input_path="/t", predicate=ColumnCompare("l_quantity", "=", value)
    )
    return ScanTask(refs=refs, spec=conf.mapper_factory().scan_task_spec())


def serial_hits(refs, value):
    dataset = open_mmap_dataset(refs[0].path)
    return [
        [
            i for i, quantity in enumerate(
                dataset.partition_store(ref.partition).columns["l_quantity"]
            )
            if quantity == value
        ]
        for ref in refs
    ]


class TestMatcherCache:
    def test_same_source_other_constants_answer_serially(self, refs_and_spec, matchers):
        """``l_quantity = 7`` and ``= 51`` share one generated source and
        differ only in the constant pool: a source-only key would answer
        the second with the first's matcher."""
        refs, _spec = refs_and_spec
        seven, fifty_one = quantity_task(refs, 7), quantity_task(refs, 51)
        assert seven.spec.source == fifty_one.spec.source
        assert seven.spec.namespace != fifty_one.spec.namespace
        for value, task in ((7, seven), (51, fifty_one), (7, seven)):
            assert [r.hits for r in run_scan_task(task)] == serial_hits(refs, value)
        assert len(matchers) == 2
        assert any(serial_hits(refs, 7)), "the fixture has l_quantity = 7 rows"

    def test_a_hit_compiles_nothing(self, refs_and_spec, monkeypatch):
        refs, spec = refs_and_spec
        compiled = []
        compile_source = proc.compile_batch_matcher_from_source

        def spy(source, namespace):
            compiled.append(source)
            return compile_source(source, namespace)

        monkeypatch.setattr(proc, "compile_batch_matcher_from_source", spy)
        task = ScanTask(refs=refs, spec=spec)
        first = run_scan_task(task)
        assert len(compiled) == 1
        # The same task again, and a fresh copy as a worker unpickles it.
        assert answers(run_scan_task(task)) == answers(first)
        assert answers(run_scan_task(pickle.loads(pickle.dumps(task)))) == answers(first)
        assert len(compiled) == 1

    def test_the_cache_clears_when_full(self, refs_and_spec, matchers):
        refs, _spec = refs_and_spec
        matchers.update({("source", bytes(i)): None for i in range(MATCHER_CACHE_SIZE)})
        results = run_scan_task(quantity_task(refs, 7))
        assert [r.hits for r in results] == serial_hits(refs, 7)
        assert len(matchers) == 1


class TestStringDecode:
    def test_a_worker_decodes_only_partitions_it_scans_again(self, refs_and_spec):
        refs, _spec = refs_and_spec
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=ColumnCompare("l_shipmode", "=", "RAIL")
        )
        task = ScanTask(refs=refs, spec=conf.mapper_factory().scan_task_spec())
        dataset = open_mmap_dataset(refs[0].path)
        stores = [dataset.partition_store(ref.partition) for ref in refs]
        expected = [
            [i for i, mode in enumerate(store.columns["l_shipmode"]) if mode == "RAIL"]
            for store in stores
        ]
        shipmodes = [store.columns["l_shipmode"] for store in stores]
        first = run_scan_task(task)
        assert [r.hits for r in first] == expected
        assert all(column._decoded == [] for column in shipmodes)
        second = run_scan_task(task)
        assert answers(second) == answers(first)
        assert [len(column._decoded) for column in shipmodes] == [
            ref.row_count for ref in refs
        ]
        assert answers(run_scan_task(task)) == answers(first)

    def test_a_limit_rescan_decodes_one_batch(self, tmp_path):
        """Partitions longer than a batch are scanned batch by batch, so
        a LIMIT-k re-scan decodes the batch it stops in, not the whole
        partition."""
        spec = dataset_spec_for_scale(0.004, num_partitions=2)  # 12,000 rows each
        dataset = build_materialized_dataset(
            spec, {predicate_for_skew(0): 0.0}, seed=0, selectivity=0.01,
            layout="mmap", mmap_path=str(tmp_path / "big.rcs"),
        )
        refs = tuple(partition.mmap_ref for partition in dataset.partitions)
        assert all(ref.row_count > 2 * DEFAULT_BATCH_SIZE for ref in refs)
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=ColumnCompare("l_shipmode", "=", "RAIL")
        )
        spec = dataclasses.replace(conf.mapper_factory().scan_task_spec(), limit=3)
        task = ScanTask(refs=refs, spec=spec)
        first = run_scan_task(task)
        assert answers(run_scan_task(task)) == answers(first)
        reader = open_mmap_dataset(refs[0].path)
        for ref, result in zip(refs, first):
            assert len(result.hits) == 3 and result.scanned < DEFAULT_BATCH_SIZE
            column = reader.partition_store(ref.partition).columns["l_shipmode"]
            assert len(column._decoded) == DEFAULT_BATCH_SIZE


class TestTimings:
    def test_real_clock_bounds(self, refs_and_spec):
        refs, spec = refs_and_spec
        results = run_scan_task(ScanTask(refs=refs, spec=spec))
        for result in results:
            assert result.wall_s >= result.scan_wall_s >= 0.0

    def test_split_shares_sum_to_task_wall(self, refs_and_spec, monkeypatch):
        # A clock that advances one second per read makes the task's
        # wall time (first read to last read) exact.
        refs, spec = refs_and_spec
        ticks = []
        counter = itertools.count()

        def fake_clock():
            ticks.append(float(next(counter)))
            return ticks[-1]

        monkeypatch.setattr(proc, "wall_clock", fake_clock)
        results = run_scan_task(ScanTask(refs=refs, spec=spec))
        task_wall = ticks[-1] - ticks[0]
        assert sum(r.wall_s for r in results) == pytest.approx(task_wall)
        shares = {round(r.wall_s - r.scan_wall_s, 9) for r in results}
        assert len(shares) == 1, "open and compile are shared out equally"
        assert shares.pop() > 0.0
        for result in results:
            assert result.wall_s >= result.scan_wall_s
