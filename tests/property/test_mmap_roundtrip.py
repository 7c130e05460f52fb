"""Property tests for the RCS1 mmap layout (satellite: any schema and
row set — NULLs, empty strings, unicode included — must encode, map, and
decode back byte-identically, and the batch scan over mmap-backed
datasets must agree with the reference map task, as it does on the
in-memory layouts).
"""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan.mmapstore import (
    MmapDataset,
    MmapDatasetWriter,
    encode_partition,
)

_TMPDIR = Path(tempfile.mkdtemp(prefix="repro_mmap_prop_"))
_file_seq = itertools.count()

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FLOATS = st.floats(allow_nan=False)  # NaN != NaN breaks value equality
_TEXT = st.text(max_size=40)  # includes "", surrogates excluded by default

_VALUE_STRATEGIES = {
    "i": st.one_of(st.none(), _INT64),
    "f": st.one_of(st.none(), _FLOATS),
    "b": st.one_of(st.none(), st.booleans()),
    "s": st.one_of(st.none(), _TEXT),
}

_NAME = st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True)


@st.composite
def tables(draw):
    names = draw(
        st.lists(_NAME, min_size=1, max_size=6, unique=True)
    )
    types = [draw(st.sampled_from("ifbs")) for _ in names]
    row_count = draw(st.integers(min_value=0, max_value=50))
    columns = {
        name: draw(
            st.lists(
                _VALUE_STRATEGIES[code], min_size=row_count, max_size=row_count
            )
        )
        for name, code in zip(names, types)
    }
    return tuple(names), tuple(types), columns, row_count


class TestRoundTrip:
    @given(table=tables())
    @settings(max_examples=60, deadline=None)
    def test_values_survive_encode_mmap_decode(self, table):
        names, types, columns, row_count = table
        path = _TMPDIR / f"t{next(_file_seq)}.rcs"
        with MmapDatasetWriter(path, names, types, meta={"n": row_count}) as writer:
            writer.write_partition(columns, row_count)
        ds = MmapDataset(path)
        assert ds.names == names
        assert ds.types == types
        assert ds.num_rows == row_count
        store = ds.partition_store(0)
        for name in names:
            decoded = store.columns[name]
            assert len(decoded) == row_count
            assert list(decoded) == columns[name]
            assert [decoded[i] for i in range(row_count)] == columns[name]
        ds.close()
        path.unlink()

    @given(table=tables())
    @settings(max_examples=40, deadline=None)
    def test_reencoding_decoded_values_is_byte_identical(self, table):
        """Decode loses nothing: re-encoding the decoded columns yields
        the exact original region bytes (float bit patterns included)."""
        names, types, columns, row_count = table
        original = encode_partition(names, types, columns, row_count)
        path = _TMPDIR / f"t{next(_file_seq)}.rcs"
        with MmapDatasetWriter(path, names, types) as writer:
            writer.write_partition(columns, row_count)
        store = MmapDataset(path).partition_store(0)
        decoded = {name: list(store.columns[name]) for name in names}
        assert encode_partition(names, types, decoded, row_count) == original
        path.unlink()

    @given(
        chunks=st.lists(
            st.lists(st.one_of(st.none(), _INT64), max_size=20),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_partitioning_is_invisible_to_readers(self, chunks):
        """The same values written as one partition or many read back
        identically — partition boundaries are a physical detail."""
        flat = [value for chunk in chunks for value in chunk]
        one = _TMPDIR / f"t{next(_file_seq)}_one.rcs"
        many = _TMPDIR / f"t{next(_file_seq)}_many.rcs"
        with MmapDatasetWriter(one, ("a",), ("i",)) as writer:
            writer.write_partition({"a": flat}, len(flat))
        with MmapDatasetWriter(many, ("a",), ("i",)) as writer:
            for chunk in chunks:
                writer.write_partition({"a": chunk}, len(chunk))
        ds_one, ds_many = MmapDataset(one), MmapDataset(many)
        assert ds_one.num_rows == ds_many.num_rows == len(flat)
        gathered = [
            value
            for index in range(ds_many.num_partitions)
            for value in ds_many.partition_store(index).columns["a"]
        ]
        assert gathered == list(ds_one.partition_store(0).columns["a"]) == flat
        one.unlink()
        many.unlink()


class TestReferenceParityOnMmap:
    @given(
        partitions=st.integers(min_value=1, max_value=6),
        selectivity=st.sampled_from([0.0, 0.005, 0.05]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_batch_scan_matches_the_reference_on_mmap_layout(
        self, partitions, selectivity, seed
    ):
        from repro.cluster import paper_topology
        from repro.core.sampling_job import make_scan_conf
        from repro.data.datasets import (
            build_materialized_dataset,
            dataset_spec_for_scale,
        )
        from repro.data.predicates import predicate_for_skew
        from repro.dfs import DistributedFileSystem
        from repro.scan.engine import run_map_task
        from tests.unit.test_scan_equivalence import reference_scan

        predicate = predicate_for_skew(0)
        rows = partitions * 250
        spec = dataset_spec_for_scale(
            rows / 6_000_000, num_partitions=partitions
        )
        path = _TMPDIR / f"parity{next(_file_seq)}.rcs"
        dataset = build_materialized_dataset(
            spec,
            {predicate: 0.0},
            seed=seed,
            selectivity=selectivity,
            layout="mmap",
            mmap_path=str(path),
        )
        dfs = DistributedFileSystem(paper_topology().storage_locations())
        dfs.write_dataset("/t", dataset)
        splits = dfs.open_splits("/t")
        columns = ("l_orderkey", "l_quantity")
        conf = make_scan_conf(
            name="q", input_path="/t", predicate=predicate, columns=columns,
        )
        for split in splits:
            context = run_map_task(conf, split)
            assert (context.outputs, context.records_read) == reference_scan(
                split, predicate, columns
            )
        path.unlink()
