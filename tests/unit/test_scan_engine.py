"""Unit tests for the scan engine: columnar storage, the loop each
mapper runs, and LIMIT short-circuit accounting, held to the reference
map tasks of ``test_scan_equivalence``."""

import pytest

from repro.core.sampling_job import SamplingMapper, ScanMapper
from repro.data.predicates import ColumnCompare
from repro.engine.jobconf import JobConf
from repro.engine.mapreduce import IdentityMapper, MapContext
from repro.errors import DataGenerationError
from repro.scan.columnar import ColumnBatch, ColumnStore
from repro.scan.engine import run_map_task
from tests.unit.test_scan_equivalence import (
    StoreSplit,
    reference_sample,
    reference_scan,
)

ROWS = [{"x": i, "y": i * 10} for i in range(10)]


def split_of(rows, batch_size=4096):
    return StoreSplit(ColumnStore.from_rows(rows), batch_size)


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

    def test_iter_batches_covers_all_rows_once(self):
        store = ColumnStore.from_rows(ROWS)
        batches = list(store.iter_batches(4))
        assert [(b.start, b.stop) for b in batches] == [(0, 4), (4, 8), (8, 10)]
        rows = [b.row(i) for b in batches for i in range(b.start, b.stop)]
        assert rows == ROWS

    def test_batch_indices_are_absolute(self):
        store = ColumnStore.from_rows(ROWS)
        batch = list(store.iter_batches(4))[1]
        assert isinstance(batch, ColumnBatch)
        assert [batch.row(i) for i in range(batch.start, batch.stop)] == ROWS[4:8]
        assert batch.row(5) == ROWS[5]

    def test_empty_store(self):
        store = ColumnStore.from_rows([])
        assert store.num_rows == 0
        assert list(store.iter_batches(4)) == []


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
        split = split_of(ROWS, batch_size)
        spans = []
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
    the batch size."""

    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_stops_at_kth_match(self, batch_size):
        # Matches at indices 2, 5, 8; k=2 -> scanning stops at index 5.
        rows = [{"x": 1 if i in (2, 5, 8) else 0} for i in range(10)]
        predicate = ColumnCompare("x", "=", 1)
        conf = make_conf(lambda: SamplingMapper(predicate, k=2))
        context = run_map_task(conf, split_of(rows, batch_size))
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
        split = split_of(rows, batch_size=8)
        conf = make_conf(lambda: SamplingMapper(predicate, k=7))
        context = run_map_task(conf, split)
        assert (context.outputs, context.records_read) == reference_sample(
            split, predicate, 7
        )
