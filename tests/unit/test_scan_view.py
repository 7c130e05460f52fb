"""How scans read mmap string columns: rows no earlier scan reached are
read value by value; rows a scan reads again come from one decoded list,
kept only while the column has few distinct strings. Row reads
(``iter_rows``, ``row_at``, ``store.columns`` lookups) never decode."""

import sys
import threading

import pytest

from repro.data.datasets import build_materialized_dataset, dataset_spec_for_scale
from repro.data.predicates import ColumnCompare, predicate_for_skew
from repro.scan import mmapstore
from repro.scan.codegen import compile_batch_matcher
from repro.scan.columnar import DEFAULT_BATCH_SIZE, ColumnStore
from repro.scan.mmapstore import (
    MmapDataset,
    MmapDatasetWriter,
    NullableColumn,
    StringColumn,
    _StructColumn,
)

MODES = ("AIR", "RAIL", "TRUCK", "MAIL", "SHIP", "FOB", "REG AIR")
KINDS = (None, "", "é", "✈ TRUCK", "AIR")
NAMES = ("id", "price", "flag", "mode", "kind", "label")
TYPES = ("i", "f", "b", "s", "s", "s")
ROWS = 300


def make_columns(rows=ROWS):
    return {
        "id": [None if i % 7 == 3 else i - 50 for i in range(rows)],
        "price": [None if i % 5 == 1 else i * 0.25 for i in range(rows)],
        "flag": [None if i % 11 == 2 else i % 2 == 0 for i in range(rows)],
        "mode": [MODES[(i * 5) % len(MODES)] for i in range(rows)],
        "kind": [KINDS[i % len(KINDS)] for i in range(rows)],
        "label": [
            None if i % 13 == 4 else ("" if i % 9 == 0 else f"é{i}✈ x")
            for i in range(rows)
        ],
    }


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "t.rcs"
    columns = make_columns()
    with MmapDatasetWriter(path, NAMES, TYPES) as writer:
        writer.write_partition(columns, ROWS)
        writer.write_partition(columns, ROWS)
    return MmapDataset(path)


@pytest.fixture()
def big_column(tmp_path):
    """A cold 7-value string column five batches long."""
    rows = 5 * DEFAULT_BATCH_SIZE
    with MmapDatasetWriter(tmp_path / "big.rcs", ("mode",), ("s",)) as writer:
        writer.write_partition({"mode": [MODES[i % 7] for i in range(rows)]}, rows)
    return MmapDataset(tmp_path / "big.rcs").partition_store(0)


def string_columns(store):
    return [store.columns[name] for name in ("mode", "kind", "label")]


def is_cold(column):
    return column._reached == 0 and column._decoded == []


def scan(store, predicate, limit=None):
    """The batch loop of the sampling mapper: batch by batch, up to
    ``limit`` hits. Returns the hit indices."""
    matcher = compile_batch_matcher(predicate)
    hits = []
    for batch in store.iter_batches():
        remaining = None if limit is None else limit - len(hits)
        matcher(batch.columns, batch.start, batch.stop, remaining, hits.append)
        if limit is not None and len(hits) >= limit:
            break
    return hits


class TestDecoded:
    @pytest.mark.parametrize("name", ("mode", "kind"))
    def test_rescanned_rows_decode_to_the_column_values(self, dataset, name):
        column = dataset.partition_store(0).columns[name]
        assert column.decoded(ROWS) is column  # first read: value by value
        values = column.decoded(ROWS)
        assert isinstance(values, list)
        assert values == list(column) == make_columns()[name]

    def test_column_kinds_under_test(self, dataset):
        columns = dataset.partition_store(0).columns
        for name in ("mode", "kind", "label"):
            assert isinstance(columns[name], StringColumn)
        for name in ("id", "price", "flag"):
            assert isinstance(columns[name], NullableColumn)

    def test_null_bearing_numeric_columns_scan_as_themselves(self, dataset):
        store = dataset.partition_store(0)
        for _ in range(3):
            view = store.scan_columns(ROWS)
            for name in ("id", "price", "flag"):
                assert view[name] is store.columns[name]

    def test_high_cardinality_column_keeps_nothing(self, dataset):
        column = dataset.partition_store(0).columns["label"]
        assert len(set(make_columns()["label"])) > ROWS // 16
        for _ in range(3):
            assert column.decoded(ROWS) is column
        assert column._decoded is None
        assert column._shared == {}

    def test_big_endian_offsets_decode_the_same(self, tmp_path, monkeypatch):
        """Big-endian hosts read offsets through ``struct`` (a
        ``_StructColumn``, which slices to a list); the file is written
        before the flag flips, since the writer depends on it too."""
        path = tmp_path / "t.rcs"
        with MmapDatasetWriter(path, NAMES, TYPES) as writer:
            writer.write_partition(make_columns(), ROWS)
        monkeypatch.setattr(mmapstore, "_NATIVE_LE", False)
        columns = MmapDataset(path).partition_store(0).columns
        assert isinstance(columns["mode"]._offsets, _StructColumn)
        for name in ("mode", "kind"):
            column = columns[name]
            assert column.decoded(ROWS) is column
            assert column.decoded(ROWS) == list(column) == make_columns()[name]

    def test_list_is_kept(self, dataset):
        column = dataset.partition_store(0).columns["mode"]
        column.decoded(ROWS)
        assert column.decoded(ROWS) is column.decoded(10) is column.decoded(ROWS)


class TestWindows:
    def test_rows_decode_only_once_a_scan_reads_them_again(self, big_column):
        column = big_column.columns["mode"]
        batch = DEFAULT_BATCH_SIZE
        assert column.decoded(batch) is column
        assert len(column.decoded(batch)) == batch
        # Rows past the list that no scan read yet: value by value.
        assert column.decoded(2 * batch) is column
        assert len(column.decoded(2 * batch)) == 2 * batch

    def test_the_list_grows_by_doubling_up_to_the_rows_read(self, big_column):
        column = big_column.columns["mode"]
        rows = big_column.num_rows
        assert column.decoded(rows) is column
        assert len(column.decoded(DEFAULT_BATCH_SIZE)) == DEFAULT_BATCH_SIZE
        assert len(column.decoded(DEFAULT_BATCH_SIZE + 1)) == 2 * DEFAULT_BATCH_SIZE
        assert len(column.decoded(2 * DEFAULT_BATCH_SIZE + 1)) == 4 * DEFAULT_BATCH_SIZE
        assert len(column.decoded(4 * DEFAULT_BATCH_SIZE + 1)) == rows
        assert column.decoded(rows) == [MODES[i % 7] for i in range(rows)]

    def test_cold_limit_scan_decodes_nothing(self, big_column):
        column = big_column.columns["mode"]
        expected = [i for i in range(big_column.num_rows) if MODES[i % 7] == "RAIL"][:5]
        assert scan(big_column, ColumnCompare("mode", "=", "RAIL"), limit=5) == expected
        assert column._decoded == []
        assert column._reached == DEFAULT_BATCH_SIZE

    def test_limit_rescan_after_a_full_scan_decodes_one_batch(self, big_column):
        column = big_column.columns["mode"]
        predicate = ColumnCompare("mode", "=", "RAIL")
        full = scan(big_column, predicate)
        assert len(full) == big_column.num_rows // 7 + 1
        assert column._decoded == [] and column._reached == big_column.num_rows
        assert scan(big_column, predicate, limit=5) == full[:5]
        assert len(column._decoded) == DEFAULT_BATCH_SIZE
        assert scan(big_column, predicate) == full
        assert len(column._decoded) == big_column.num_rows


    def test_racing_threads_always_see_complete_lists(self, big_column):
        """Eight threads (more than the cores) extend one column window
        by window with a tiny switch interval: every list handed out
        must cover the rows asked for, with the right values."""
        column = big_column.columns["mode"]
        rows = big_column.num_rows
        expected = [MODES[i % 7] for i in range(rows)]
        column.decoded(rows)  # an earlier scan read every row
        barrier = threading.Barrier(8)
        bad = []

        def scan():
            barrier.wait()
            for stop in range(64, rows + 1, 64):
                values = column.decoded(stop)
                if len(values) < stop or values[stop - 1] != expected[stop - 1]:
                    bad.append(stop)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []
        assert column.decoded(rows) == expected


class TestRowReadsNeverDecode:
    def test_iter_rows_and_row_at(self, dataset):
        store = dataset.partition_store(0)
        assert len(list(store.iter_rows())) == ROWS
        store.row_at(5)
        store.row_at(6, ("mode", "label"))
        for name in store.names:
            list(store.columns[name])
            store.columns[name][0]
        assert all(is_cold(column) for column in string_columns(store))

    def test_dataset_iter_rows(self, tmp_path):
        spec = dataset_spec_for_scale(0.0005, num_partitions=4)
        data = build_materialized_dataset(
            spec, {predicate_for_skew(0): 0.0}, seed=0, selectivity=0.01,
            layout="mmap", mmap_path=str(tmp_path / "l.rcs"),
        )
        assert sum(1 for _ in data.iter_rows()) == spec.num_rows
        stores = [partition.column_store() for partition in data.partitions]
        decoders = [
            column for store in stores for column in store.columns.values()
            if isinstance(column, StringColumn)
        ]
        assert decoders
        assert all(is_cold(column) for column in decoders)

    def test_scan_view_order_and_size_never_decode(self, dataset):
        store = dataset.partition_store(0)
        view = store.scan_columns(ROWS)
        assert tuple(view) == NAMES
        assert len(view) == len(NAMES)
        assert all(is_cold(column) for column in string_columns(store))


class TestScanDecodes:
    def test_scan_decodes_only_the_columns_it_binds(self, dataset):
        store = dataset.partition_store(0)
        predicate = ColumnCompare("mode", "=", "RAIL")
        expected = [i for i, mode in enumerate(make_columns()["mode"]) if mode == "RAIL"]
        assert scan(store, predicate) == expected
        mode, kind, label = string_columns(store)
        assert mode._decoded == [] and mode._reached == ROWS
        assert scan(store, predicate) == expected
        assert isinstance(store.scan_columns(ROWS)["mode"], list)
        assert is_cold(kind) and is_cold(label)
        # The other partition's columns are separate and still cold.
        assert all(is_cold(c) for c in string_columns(dataset.partition_store(1)))

    def test_low_cardinality_list_holds_one_object_per_distinct_value(self, dataset):
        store = dataset.partition_store(0)
        for _ in range(2):
            scan(store, ColumnCompare("mode", "=", "AIR"))
        values = store.scan_columns(ROWS)["mode"]
        assert len(values) == ROWS
        assert len({id(value) for value in values}) == len(set(values)) == len(MODES)

    def test_warm_scan_reuses_the_list(self, dataset):
        store = dataset.partition_store(0)
        predicate = ColumnCompare("mode", "=", "SHIP")
        cold = scan(store, predicate)
        assert scan(store, predicate) == cold
        values = store.scan_columns(ROWS)["mode"]
        assert scan(store, predicate) == cold
        assert store.scan_columns(ROWS)["mode"] is values

    def test_batches_expose_the_scan_view(self, dataset):
        store = dataset.partition_store(0)
        [batch] = list(store.iter_batches(ROWS))
        assert batch.columns["id"] is store.columns["id"]
        assert batch.columns["mode"] is store.columns["mode"]
        assert batch.columns["mode"] == make_columns()["mode"]
        assert batch.row(3) == store.row_at(3)

    def test_in_memory_store_scans_its_columns_dict(self):
        store = ColumnStore.from_rows([{"a": 1, "b": "x"}, {"a": None, "b": "y"}])
        assert store.scan_columns(2) is store.columns
        [batch] = list(store.iter_batches())
        assert batch.columns is store.columns
