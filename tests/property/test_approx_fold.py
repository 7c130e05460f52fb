"""The approx mapper's per-group totals equal the per-row pairs they replace.

The approx mapper once emitted one ``(group, value)`` pair per matching
row, and the accuracy demand folded those back into per-group
``(count, sum)`` totals. It now folds on the map side. For any rows —
NULL values, NULL, empty and non-ASCII group keys, ``-0.0`` and floats
of mixed magnitude — its map task over an in-memory and an mmap
partition, scanned in chunks of any size, must return exactly (by ``==``, and
bit for bit) the reference fold: those pairs folded in row order from
``(0, 0.0)``, for COUNT, SUM and AVG, with and without GROUP BY.
"""

import itertools
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.approx.job import make_approx_conf
from repro.data.predicates import ColumnCompare
from repro.scan.columnar import ColumnStore
from repro.scan.engine import run_map_task
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter
from tests.unit.test_scan_equivalence import StoreSplit, reference_fold, scan_chunks

_TMPDIR = Path(tempfile.mkdtemp(prefix="repro_approx_fold_"))
_file_seq = itertools.count()

NAMES = ("k", "g", "x", "n")
TYPES = ("i", "s", "f", "i")
AGGREGATES = ("count", "sum:x", "avg:x", "sum:n")
GROUP_BYS = (None, "g")

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e300, -1e300, 1e-300, 2.0**53]),
    st.floats(allow_nan=False, allow_infinity=False),
)
rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "k": st.integers(min_value=0, max_value=9),
            "g": st.one_of(
                st.none(), st.sampled_from(["", "a", "b", "AIRÉ", "✈ TRUCK"])
            ),
            "x": st.one_of(st.none(), _FLOATS),
            "n": st.one_of(
                st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)
            ),
        }
    ),
    max_size=40,
)


def bits(outputs):
    """Outputs with each sum as its exact bit pattern (tells -0.0 from 0.0)."""
    return [(group, (count, total.hex())) for group, (count, total) in outputs]


@settings(max_examples=60, deadline=None)
@example(  # a group whose only values are -0.0 sums to 0.0, not -0.0
    rows=[
        {"k": 0, "g": "a", "x": -0.0, "n": None},
        {"k": 0, "g": "a", "x": -0.0, "n": 0},
        {"k": 0, "g": None, "x": None, "n": None},
    ],
    cutoff=1,
    batch_size=1,
)
@given(
    rows=rows_strategy,
    cutoff=st.integers(min_value=0, max_value=10),
    batch_size=st.integers(min_value=1, max_value=8),
)
def test_folded_totals_equal_the_per_row_pairs(rows, cutoff, batch_size):
    predicate = ColumnCompare("k", "<", cutoff)
    path = _TMPDIR / f"t{next(_file_seq)}.rcs"
    with MmapDatasetWriter(path, NAMES, TYPES) as writer:
        writer.write_rows(rows)
    stores = {
        "columns": ColumnStore.from_rows(rows),
        "mmap": MmapDataset(path).partition_store(0),
    }
    for aggregate, group_by in itertools.product(AGGREGATES, GROUP_BYS):
        expected, scanned = reference_fold(
            StoreSplit(stores["columns"]), predicate, aggregate, group_by
        )
        assert scanned == len(rows)
        conf = make_approx_conf(
            name="fold", input_path="/t", predicate=predicate,
            aggregate=aggregate, error_pct=5.0, group_by=group_by,
        )
        for layout, store in stores.items():
            with scan_chunks(batch_size):
                context = run_map_task(conf, StoreSplit(store))
            assert context.outputs == expected, (layout, aggregate, group_by)
            assert bits(context.outputs) == bits(expected)
            assert context.records_read == len(rows)
