"""Unit tests for the RCS1 on-disk columnar format (repro.scan.mmapstore)."""

import pickle
import struct
import tracemalloc

import pytest

from repro.data.predicates import ColumnCompare
from repro.data.schema import Field, Schema
from repro.data.tpch import LINEITEM_SCHEMA
from repro.errors import MmapStoreError
from repro.scan.codegen import compile_batch_matcher
from repro.scan.mmapstore import (
    COLUMN_TYPES,
    MAGIC,
    VERSION,
    MmapDataset,
    MmapDatasetWriter,
    MmapSplitRef,
    column_types_for_schema,
    encode_partition,
    infer_column_types,
    open_mmap_dataset,
)

NAMES = ("id", "price", "flag", "label")
TYPES = ("i", "f", "b", "s")
COLUMNS = {
    "id": [1, -2, 3, None],
    "price": [0.5, None, -1.25, 3.0],
    "flag": [True, False, None, True],
    "label": ["a", "", None, "héllo"],
}


def write_sample(path, *, partitions=1):
    with MmapDatasetWriter(path, NAMES, TYPES, meta={"k": "v"}) as writer:
        for _ in range(partitions):
            writer.write_partition(COLUMNS, 4)
    return writer


class TestWriterReaderRoundTrip:
    def test_all_types_and_nulls_round_trip(self, tmp_path):
        path = tmp_path / "t.rcs"
        write_sample(path)
        ds = MmapDataset(path)
        assert ds.names == NAMES
        assert ds.types == TYPES
        assert ds.num_partitions == 1
        assert ds.num_rows == 4
        assert ds.meta == {"k": "v"}
        store = ds.partition_store(0)
        for name in NAMES:
            assert list(store.columns[name]) == COLUMNS[name]
            for i in range(4):
                assert store.columns[name][i] == COLUMNS[name][i]

    def test_multiple_partitions_get_distinct_refs(self, tmp_path):
        path = tmp_path / "t.rcs"
        writer = write_sample(path, partitions=3)
        refs = [MmapSplitRef(str(path), i, *e) for i, e in enumerate(writer._entries)]
        ds = MmapDataset(path)
        assert ds.split_refs() == refs
        assert [r.row_start for r in refs] == [0, 4, 8]
        assert len({r.byte_offset for r in refs}) == 3
        for ref in refs:
            assert ref.byte_offset + ref.byte_length <= ds.file_size

    def test_write_rows_transposes(self, tmp_path):
        path = tmp_path / "t.rcs"
        rows = [
            {"id": 1, "price": 2.0, "flag": False, "label": "x"},
            {"id": 2, "price": 3.0, "flag": True, "label": "y"},
        ]
        with MmapDatasetWriter(path, NAMES, TYPES) as writer:
            writer.write_rows(rows)
        store = MmapDataset(path).partition_store(0)
        assert [dict(zip(NAMES, (store.columns[n][i] for n in NAMES))) for i in range(2)] == rows

    def test_split_ref_is_picklable(self, tmp_path):
        ref = MmapSplitRef("/x/y.rcs", 2, 100, 50, 4096, 888)
        assert pickle.loads(pickle.dumps(ref)) == ref

    def test_buffer_backed_dataset_reads_without_a_file(self, tmp_path):
        path = tmp_path / "t.rcs"
        write_sample(path)
        ds = MmapDataset(buffer=path.read_bytes())
        assert list(ds.partition_store(0).columns["id"]) == COLUMNS["id"]
        with pytest.raises(MmapStoreError, match="no file"):
            ds.split_refs()


class TestLazyOpen:
    def test_open_touches_only_header_and_footer(self, tmp_path):
        path = tmp_path / "t.rcs"
        with MmapDatasetWriter(path, ("a",), ("i",)) as writer:
            for start in range(0, 50_000, 10_000):
                writer.write_partition({"a": list(range(start, start + 10_000))}, 10_000)
        ds = MmapDataset(path)
        # Eager work is the 24-byte header plus the footer — a fixed cost
        # that does not grow with column data (satellite 6's no-copy open).
        assert ds.file_size > 400_000
        assert ds.eager_bytes < 400
        (footer_length,) = struct.unpack_from("<Q", path.read_bytes(), 16)
        assert ds.eager_bytes == 24 + footer_length

    def test_numeric_columns_are_zero_copy_views(self, tmp_path):
        import sys

        path = tmp_path / "t.rcs"
        write_sample(path)
        with MmapDatasetWriter(tmp_path / "plain.rcs", ("a", "b"), ("i", "f")) as writer:
            writer.write_partition({"a": [1, 2], "b": [0.5, 1.5]}, 2)
        store = MmapDataset(tmp_path / "plain.rcs").partition_store(0)
        if sys.byteorder == "little":
            assert isinstance(store.columns["a"], memoryview)
            assert isinstance(store.columns["b"], memoryview)

    def test_partition_store_is_cached(self, tmp_path):
        path = tmp_path / "t.rcs"
        write_sample(path)
        ds = MmapDataset(path)
        assert ds.partition_store(0) is ds.partition_store(0)

    def test_open_cache_reuses_and_invalidates(self, tmp_path):
        path = tmp_path / "t.rcs"
        write_sample(path)
        first = open_mmap_dataset(path)
        assert open_mmap_dataset(path) is first
        write_sample(path, partitions=2)  # rewrite: new mtime/size
        reopened = open_mmap_dataset(path)
        assert reopened is not first
        assert reopened.num_partitions == 2


class TestFormatErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rcs"
        write_sample(path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(MmapStoreError, match="bad magic"):
            MmapDataset(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.rcs"
        write_sample(path)
        blob = bytearray(path.read_bytes())
        blob[4] = VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(MmapStoreError, match="version"):
            MmapDataset(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.rcs"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(MmapStoreError, match="truncated"):
            MmapDataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.rcs"
        path.write_bytes(b"")
        with pytest.raises(MmapStoreError, match="not an RCS1 file"):
            MmapDataset(path)

    def test_unclosed_writer_leaves_unreadable_file(self, tmp_path):
        path = tmp_path / "bad.rcs"
        writer = MmapDatasetWriter(path, ("a",), ("i",))
        writer.write_partition({"a": [1]}, 1)
        writer._file.close()  # simulate a crash before close()
        with pytest.raises(MmapStoreError, match="never closed"):
            MmapDataset(path)

    def test_abort_on_exception_leaves_no_footer(self, tmp_path):
        path = tmp_path / "bad.rcs"
        with pytest.raises(RuntimeError):
            with MmapDatasetWriter(path, ("a",), ("i",)) as writer:
                writer.write_partition({"a": [1]}, 1)
                raise RuntimeError("boom")
        with pytest.raises(MmapStoreError):
            MmapDataset(path)


class TestWriterValidation:
    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(MmapStoreError, match="at least one column"):
            MmapDatasetWriter(tmp_path / "t.rcs", (), ())

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(MmapStoreError, match="duplicate"):
            MmapDatasetWriter(tmp_path / "t.rcs", ("a", "a"), ("i", "i"))

    def test_name_type_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(MmapStoreError, match="type codes"):
            MmapDatasetWriter(tmp_path / "t.rcs", ("a", "b"), ("i",))

    def test_unknown_type_code_lists_known_codes(self, tmp_path):
        with pytest.raises(MmapStoreError) as err:
            MmapDatasetWriter(tmp_path / "t.rcs", ("a",), ("z",))
        for code in COLUMN_TYPES:
            assert repr(code) in str(err.value) or code in str(err.value)

    def test_missing_column_rejected(self, tmp_path):
        with MmapDatasetWriter(tmp_path / "t.rcs", ("a", "b"), ("i", "i")) as writer:
            with pytest.raises(MmapStoreError, match="missing columns"):
                writer.write_partition({"a": [1]}, 1)
            writer.write_partition({"a": [1], "b": [2]}, 1)

    def test_closed_writer_rejects_writes(self, tmp_path):
        writer = MmapDatasetWriter(tmp_path / "t.rcs", ("a",), ("i",))
        writer.write_partition({"a": [1]}, 1)
        writer.close()
        with pytest.raises(MmapStoreError, match="closed"):
            writer.write_partition({"a": [2]}, 1)
        with pytest.raises(MmapStoreError, match="closed"):
            writer.close()

    def test_int_overflow_rejected(self, tmp_path):
        with MmapDatasetWriter(tmp_path / "t.rcs", ("a",), ("i",)) as writer:
            with pytest.raises(MmapStoreError, match="64-bit"):
                writer.write_partition({"a": [2**63]}, 1)
            writer.write_partition({"a": [2**63 - 1, -(2**63)]}, 2)

    def test_wrong_value_type_names_column_and_row(self, tmp_path):
        with MmapDatasetWriter(tmp_path / "t.rcs", ("a",), ("i",)) as writer:
            with pytest.raises(MmapStoreError, match="column 'a', row 1"):
                writer.write_partition({"a": [1, "x"]}, 2)
            writer.write_partition({"a": []}, 0)

    def test_bool_is_not_an_int(self, tmp_path):
        with MmapDatasetWriter(tmp_path / "t.rcs", ("a",), ("i",)) as writer:
            with pytest.raises(MmapStoreError, match="expected int"):
                writer.write_partition({"a": [True]}, 1)
            writer.write_partition({"a": [0]}, 1)


class TestTypeMapping:
    def test_lineitem_schema_maps_cleanly(self):
        codes = column_types_for_schema(LINEITEM_SCHEMA)
        assert len(codes) == len(LINEITEM_SCHEMA.field_names)
        assert set(codes) <= set(COLUMN_TYPES)

    def test_unsupported_py_type_rejected(self):
        schema = Schema("t", (Field("blob", bytes, 8),))
        with pytest.raises(MmapStoreError, match="not.*storable|is not"):
            column_types_for_schema(schema)

    def test_infer_prefers_first_non_null(self):
        assert infer_column_types(
            ("a", "b", "c", "d", "e"),
            {
                "a": [None, 3],
                "b": [True],
                "c": [1.5],
                "d": [None, None],
                "e": ["x"],
            },
        ) == ("i", "b", "f", "s", "s")

    def test_infer_rejects_unsupported_values(self):
        with pytest.raises(MmapStoreError, match="cannot store"):
            infer_column_types(("a",), {"a": [object()]})


class TestBoundedMemory:
    def test_streaming_writer_peak_is_one_partition(self, tmp_path):
        """Writing N partitions must not hold N partitions in memory —
        the property that makes 100M-row dataset builds feasible."""
        path = tmp_path / "big.rcs"
        rows_per_partition, partitions = 4_000, 40
        tracemalloc.start()
        with MmapDatasetWriter(path, ("a", "s"), ("i", "s")) as writer:
            for p in range(partitions):
                writer.write_partition(
                    {
                        "a": list(range(p, p + rows_per_partition)),
                        "s": [f"row{i}" for i in range(rows_per_partition)],
                    },
                    rows_per_partition,
                )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        file_size = path.stat().st_size
        assert file_size > 2_000_000
        # Peak allocation stays within a few partitions' worth of data,
        # far below the full file.
        assert peak < file_size / 4

    def test_scan_does_not_materialize_the_file(self, tmp_path):
        path = tmp_path / "big.rcs"
        rows_per_partition, partitions = 20_000, 8
        with MmapDatasetWriter(path, ("a",), ("i",)) as writer:
            for p in range(partitions):
                writer.write_partition(
                    {"a": list(range(rows_per_partition))}, rows_per_partition
                )
        tracemalloc.start()
        ds = MmapDataset(path)
        total = 0
        for index in range(ds.num_partitions):
            column = ds.partition_store(index).columns["a"]
            total += sum(1 for v in column if v == 7)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert total == partitions
        assert peak < path.stat().st_size / 10

    @staticmethod
    def _retained_per_row(tmp_path, code, values, literal):
        """Bytes per row that three full batch scans of a one-column
        partition leave allocated."""
        rows = len(values)
        path = tmp_path / "c.rcs"
        with MmapDatasetWriter(path, ("c",), (code,)) as writer:
            writer.write_partition({"c": values}, rows)
        store = MmapDataset(path).partition_store(0)
        matcher = compile_batch_matcher(ColumnCompare("c", "=", literal))
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            for batch in store.iter_batches():
                matcher(batch.columns, batch.start, batch.stop, None, [].append)
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return (retained - before) / rows

    def test_low_cardinality_string_scan_keeps_a_pointer_per_row(self, tmp_path):
        """The decoded list: 8 B/row plus one string per distinct value;
        one string object per row would add ~50 B/row."""
        modes = ("AIR", "RAIL", "TRUCK", "MAIL", "SHIP", "FOB", "REG AIR")
        values = [modes[i * 3 % len(modes)] for i in range(20_000)]
        assert self._retained_per_row(tmp_path, "s", values, "RAIL") < 12

    def test_high_cardinality_string_scan_keeps_nothing(self, tmp_path):
        values = [f"comment {i:06d} of a lineitem" for i in range(20_000)]
        assert self._retained_per_row(tmp_path, "s", values, "none") < 1

    def test_null_bearing_numeric_scan_keeps_nothing(self, tmp_path):
        """Decoding would keep a new float object per row (~32 B/row)."""
        values = [None if i % 10 == 0 else i * 0.5 for i in range(20_000)]
        assert self._retained_per_row(tmp_path, "f", values, 1.5) < 1


class TestEncodePartition:
    def test_deterministic_bytes(self):
        one = encode_partition(NAMES, TYPES, COLUMNS, 4)
        two = encode_partition(NAMES, TYPES, COLUMNS, 4)
        assert one == two
        assert len(one) % 8 == 0
