"""Unit tests for the process map-worker protocol (``repro.scan.proc``).

These call :func:`run_scan_task` in process, the way a worker does, so
the packing contract is checked without a pool: a packed task over
several partitions answers exactly what one single-partition task each
would, with batch-sized and telemetry-sized chunks alike, its per-split
timings share out the task's wall time, and a worker decodes a string
column only for partitions it scans again.
"""

import dataclasses
import itertools

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
from repro.scan.columnar import DEFAULT_BATCH_SIZE
from repro.scan.mmapstore import open_mmap_dataset
from repro.scan.proc import (
    ScanTask,
    WorkerDelta,
    init_worker_telemetry,
    reset_worker_telemetry,
    run_scan_task,
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


@pytest.fixture
def telemetry():
    """Install an in-process conduit over a list-backed fake queue."""

    class FakeQueue:
        def __init__(self):
            self.items = []

        def put_nowait(self, item):
            self.items.append(item)

    queue = FakeQueue()
    init_worker_telemetry(queue, chunk_rows=7)
    yield queue
    reset_worker_telemetry()


def answers(results):
    return [(r.partition, r.scanned, r.hits) for r in results]


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
    def test_chunked_path_equals_single_call(self, refs_and_spec, telemetry, limit):
        refs, spec = refs_and_spec
        spec = dataclasses.replace(spec, limit=limit)
        chunked = run_scan_task(ScanTask(refs=refs, spec=spec, job_id="j"))
        assert telemetry.items, "the telemetry path never flushed"
        reset_worker_telemetry()
        single = run_scan_task(ScanTask(refs=refs, spec=spec, job_id="j"))
        assert answers(chunked) == answers(single)
        assert all(r.deltas for r in chunked)
        assert not any(r.deltas for r in single)

    def test_deltas_are_cumulative_per_partition(self, refs_and_spec, telemetry):
        refs, spec = refs_and_spec
        results = run_scan_task(ScanTask(refs=refs, spec=spec, job_id="j"))
        assert all(isinstance(d, WorkerDelta) for d in telemetry.items)
        for result in results:
            flushed = [d for d in telemetry.items if d.partition == result.partition]
            rows = [d.rows_scanned for d in flushed]
            assert rows == sorted(rows)
            assert rows[-1] == result.scanned
            assert [cum for cum, _wall in result.deltas] == rows

    def test_no_job_id_keeps_single_call_path(self, refs_and_spec, telemetry):
        refs, spec = refs_and_spec
        results = run_scan_task(ScanTask(refs=refs, spec=spec))
        assert telemetry.items == []
        assert not any(r.deltas for r in results)


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
            assert result.cpu_s >= 0.0

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
