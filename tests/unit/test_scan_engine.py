"""Unit tests for the scan engine: columnar storage, the loop each
mapper runs, and LIMIT short-circuit accounting, held to the reference
map tasks of ``test_scan_equivalence``."""

import pytest

from repro.core.sampling_job import SamplingMapper, ScanMapper
from repro.data.predicates import ColumnCompare
from repro.engine.jobconf import JobConf
from repro.engine.mapreduce import IdentityMapper
from repro.errors import DataGenerationError
from repro.scan.columnar import ColumnStore
from repro.scan.engine import run_map_task, scan_partition
from tests.unit.test_scan_equivalence import (
    StoreSplit,
    built_rows,
    reference_sample,
    reference_scan,
    scan_chunks,
)

ROWS = [{"x": i, "y": i * 10} for i in range(10)]


def split_of(rows):
    return StoreSplit(ColumnStore.from_rows(rows))


def make_conf(mapper_factory):
    return JobConf(name="t", input_path="/t", mapper_factory=mapper_factory)


class TestColumnStore:
    def test_roundtrip_preserves_rows_and_order(self):
        store = ColumnStore.from_rows(ROWS)
        assert list(store.iter_rows()) == ROWS
        assert store.num_rows == len(ROWS)
        assert store.names == ("x", "y")

    def test_row_at_with_projection(self):
        store = ColumnStore.from_rows(ROWS)
        assert store.row_at(3) == {"x": 3, "y": 30}
        assert store.row_at(3, columns=("y",)) == {"y": 30}

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataGenerationError):
            ColumnStore(("x", "y"), {"x": [1, 2], "y": [1]})

    def test_empty_store(self):
        store = ColumnStore.from_rows([])
        assert store.num_rows == 0
        assert list(store.iter_rows()) == []


class TestScanPartition:
    """The one chunked scan loop, with a matcher that records its calls."""

    @staticmethod
    def recording_matcher(calls):
        """A batch matcher for ``x % 3 = 2`` that records each call."""

        def matcher(columns, start, stop, limit, append):
            calls.append((start, stop, limit))
            found = 0
            for index in range(start, stop):
                if columns["x"][index] % 3 == 2:
                    append(index)
                    found += 1
                    if found == limit:
                        return index - start + 1
            return stop - start

        return matcher

    def test_chunks_cover_all_rows_once(self):
        store = ColumnStore.from_rows(ROWS)
        calls, hits = [], []
        with scan_chunks(4):
            scanned = scan_partition(self.recording_matcher(calls), store, None, hits)
        assert scanned == len(ROWS)
        assert [(start, stop) for start, stop, _limit in calls] == [(0, 4), (4, 8), (8, 10)]
        assert hits == [2, 5, 8]

    def test_limit_stops_mid_chunk_and_chunks_report_cumulative_rows(self):
        store = ColumnStore.from_rows(ROWS)
        calls, hits, chunks = [], [], []
        scanned = scan_partition(
            self.recording_matcher(calls), store, 2, hits,
            chunk=4, on_chunk=lambda total, rows, wall_s: chunks.append((total, rows)),
        )
        # Each call is asked for the matches still missing: 2, then 1.
        assert [limit for _start, _stop, limit in calls] == [2, 1]
        assert (scanned, hits) == (6, [2, 5])
        assert chunks == [(4, 4), (6, 2)]

    def test_empty_store_calls_no_matcher(self):
        calls, hits = [], []
        matcher = self.recording_matcher(calls)
        assert scan_partition(matcher, ColumnStore.from_rows([]), 1, hits) == 0
        assert calls == hits == []


class TestRunMapTask:
    def test_generic_mapper_runs_the_row_loop(self):
        spans = []
        context = run_map_task(
            make_conf(IdentityMapper), split_of(ROWS), span_sink=spans.append
        )
        assert context.records_read == len(ROWS)
        assert context.outputs == list(enumerate(ROWS))
        assert [span.mode for span in spans] == ["row"]

    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_scan_mapper_matches_the_reference(self, batch_size):
        predicate = ColumnCompare("x", ">=", 5)
        split = split_of(ROWS)
        spans = []
        with scan_chunks(batch_size):
            context = run_map_task(
                make_conf(lambda: ScanMapper(predicate)), split, span_sink=spans.append
            )
        assert (context.outputs, context.records_read) == reference_scan(
            split, predicate
        )
        assert context.outputs == [(i, ROWS[i]) for i in range(5, 10)]
        assert [span.mode for span in spans] == ["batch"]


class TestLimitShortCircuit:
    """records_read must reflect only rows actually scanned, whatever
    the scan loop's chunk size."""

    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_stops_at_kth_match(self, batch_size):
        # Matches at indices 2, 5, 8; k=2 -> scanning stops at index 5.
        rows = [{"x": 1 if i in (2, 5, 8) else 0} for i in range(10)]
        predicate = ColumnCompare("x", "=", 1)
        conf = make_conf(lambda: SamplingMapper(predicate, k=2))
        with scan_chunks(batch_size):
            context = run_map_task(conf, split_of(rows))
        assert context.outputs_produced == 2
        assert context.records_read == 6

    def test_scans_everything_when_under_k(self):
        rows = [{"x": 1 if i == 4 else 0} for i in range(10)]
        predicate = ColumnCompare("x", "=", 1)
        conf = make_conf(lambda: SamplingMapper(predicate, k=5))
        context = run_map_task(conf, split_of(rows))
        assert context.outputs_produced == 1
        assert context.records_read == 10

    def test_agrees_with_the_reference(self):
        rows = [{"x": i % 3} for i in range(50)]
        predicate = ColumnCompare("x", "=", 2)
        split = split_of(rows)
        conf = make_conf(lambda: SamplingMapper(predicate, k=7))
        with scan_chunks(8):
            context = run_map_task(conf, split)
        assert (
            built_rows(context.outputs), context.records_read
        ) == reference_sample(split, predicate, 7)
