"""Property tests: the batch scan agrees with the interpreted loop.

Random core predicates over random row batches (NULLs included) must
produce the same decisions through the compiled batch scan
(:func:`compile_batch_matcher`) as through ``Predicate.matches``, which
map tasks never call and which is kept as the reference. A core
predicate is a leaf the program builds (``ColumnCompare``,
``MarkerEquals``, ``TruePredicate``) or a Hive WHERE tree of
``column <op> literal`` comparisons and boolean constants under
AND/OR/NOT, compiled as a session compiles it.

The same holds for the rest of the WHERE grammar (BETWEEN, IN, LIKE,
IS NULL, arithmetic) over LINEITEM columns, and for its batch scan over
the same rows written to an mmap partition, cold and with its string
column decoded.

This module also holds the reference map tasks other suites compare
``run_map_task`` with: the interpreted loop over ``split.iter_rows()``,
``built_rows``, which builds a sampling task's row references, and
``scan_chunks``, which sets the scan loop's chunk size.
"""

import itertools
from contextlib import contextmanager

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.sampling_job import DUMMY_KEY
from repro.data.predicates import MarkerEquals, TruePredicate
from repro.data.record import row_at
from repro.data.tpch import LINEITEM_SCHEMA
from repro.hive.ast import (
    Column,
    Comparison,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
)
from repro.hive.expressions import compile_predicate
from repro.hive.parser import parse_statement
from repro.scan import engine
from repro.scan.codegen import compile_batch_matcher
from repro.scan.columnar import ColumnStore
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter

COLUMNS = ("a", "b", "c")

values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))

rows_strategy = st.lists(
    st.fixed_dictionaries({name: values for name in COLUMNS}),
    min_size=1,
    max_size=30,
)


def comparison(column, op, value, literal_first):
    """``column <op> value``, or the same test written literal first."""
    if literal_first:
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        return Comparison(flipped, Literal(value), Column(column))
    return Comparison(op, Column(column), Literal(value))


where_trees = st.recursive(
    st.one_of(
        st.builds(
            comparison,
            st.sampled_from(COLUMNS),
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            values,
            st.booleans(),
        ),
        st.builds(Literal, st.booleans()),
    ),
    lambda children: st.one_of(
        st.builds(LogicalAnd, children, children),
        st.builds(LogicalOr, children, children),
        st.builds(LogicalNot, children),
    ),
    max_leaves=8,
)

predicates = st.one_of(
    where_trees.map(lambda tree: compile_predicate(tree, None)),
    st.builds(MarkerEquals, st.sampled_from(COLUMNS), values),
    st.just(TruePredicate()),
)


# ---------------------------------------------------------------------------
# The reference: the interpreted loop, and map tasks built on it
# ---------------------------------------------------------------------------
def interpreted(predicate, rows, start, stop, limit):
    """One call of the interpreted loop: hits, and rows scanned."""
    hits = []
    for index in range(start, stop):
        if predicate.matches(rows[index]):
            hits.append(index)
            if len(hits) == limit:
                return hits, index - start + 1
    return hits, stop - start


def _project(row, columns):
    return row if columns is None else {name: row[name] for name in columns}


def reference_sample(split, predicate, k, columns=None):
    """A sampling map task's ``(outputs, records_read)``: the split's
    first ``k`` matches, projected, under the dummy key, and the rows
    scanned up to the k-th match."""
    rows = list(split.iter_rows())
    hits, scanned = interpreted(predicate, rows, 0, len(rows), k)
    return [(DUMMY_KEY, _project(rows[i], columns)) for i in hits], scanned


def built_rows(outputs):
    """Sampling map outputs with each row reference built, as a sampling
    reducer builds the rows it keeps."""
    return [(key, row_at(*ref)) for key, ref in outputs]


def reference_scan(split, predicate, columns=None):
    """A scan map task's ``(outputs, records_read)``: every match,
    projected and keyed by its row index, and every row scanned."""
    rows = list(split.iter_rows())
    hits, scanned = interpreted(predicate, rows, 0, len(rows), None)
    return [(i, _project(rows[i], columns)) for i in hits], scanned


def reference_fold(split, predicate, aggregate, group_by=None):
    """An approx map task's ``(outputs, records_read)``: per group, in
    first-seen order, ``(count, sum)`` of the matches folded in row
    order from ``(0, 0.0)``. COUNT adds ``0.0`` per match; SUM and AVG
    skip a NULL value, and a group with no counted match is absent."""
    column = aggregate.partition(":")[2] or None
    rows = list(split.iter_rows())
    hits, scanned = interpreted(predicate, rows, 0, len(rows), None)
    totals = {}
    for i in hits:
        value = rows[i][column] if column is not None else 0.0
        if value is None:
            continue
        group = rows[i][group_by] if group_by is not None else None
        count, total = totals.get(group, (0, 0.0))
        totals[group] = (count + 1, total + float(value))
    return list(totals.items()), scanned


def reference_sampling_job(splits, split_ids, predicate, k, columns=None):
    """A sampling job's ``(output_data, records_processed,
    map_outputs_produced)`` over the splits ``split_ids`` names, in that
    order (a run's grab order, as its scan spans list it): the reference
    map tasks' outputs in that order, of which Algorithm 2 keeps the
    first ``k``."""
    by_id = {split.split_id: split for split in splits}
    outputs, records = [], 0
    for split_id in split_ids:
        split_outputs, scanned = reference_sample(by_id[split_id], predicate, k, columns)
        outputs += split_outputs
        records += scanned
    return outputs[:k], records, len(outputs)


class StoreSplit:
    """A materialized split over a column store."""

    split_id = "s0"

    def __init__(self, store):
        self.store = store

    def iter_rows(self):
        return self.store.iter_rows()

    def column_store(self):
        return self.store


@contextmanager
def scan_chunks(rows):
    """Within the block, the shared scan loop (``scan_partition``) calls
    its matcher on chunks of ``rows`` rows: it reads
    ``DEFAULT_BATCH_SIZE`` at call time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "DEFAULT_BATCH_SIZE", rows)
        yield


# ---------------------------------------------------------------------------
# The batch scan against the interpreted loop
# ---------------------------------------------------------------------------
def batch_decisions(predicate, rows):
    """Row indices accepted by the compiled batch scan."""
    store = ColumnStore.from_rows(rows)
    matcher = compile_batch_matcher(predicate)
    hits: list[int] = []
    scanned = matcher(store.columns, 0, store.num_rows, None, hits.append)
    assert scanned == store.num_rows  # no limit -> full scan
    return hits


@settings(max_examples=200, deadline=None)
@given(predicate=predicates, rows=rows_strategy)
def test_core_predicates_agree_across_paths(predicate, rows):
    expected_hits, _scanned = interpreted(predicate, rows, 0, len(rows), None)
    assert batch_decisions(predicate, rows) == expected_hits


@settings(max_examples=100, deadline=None)
@given(predicate=predicates, rows=rows_strategy, limit=st.integers(1, 10))
def test_batch_limit_prefix_of_unlimited(predicate, rows, limit):
    """A limited scan yields exactly the first ``limit`` unlimited hits,
    and reports scanning exactly up to the limit-th hit."""
    store = ColumnStore.from_rows(rows)
    matcher = compile_batch_matcher(predicate)
    full: list[int] = []
    matcher(store.columns, 0, store.num_rows, None, full.append)
    hits: list[int] = []
    scanned = matcher(store.columns, 0, store.num_rows, limit, hits.append)
    assert hits == full[:limit]
    if len(full) >= limit:
        assert scanned == full[limit - 1] + 1
    else:
        assert scanned == store.num_rows


HIVE_CONDITIONS = [
    "l_quantity > 10",
    "l_quantity > 10 AND l_tax = 0.09",
    "l_quantity > 10 AND (l_tax = 0.09 OR l_discount BETWEEN 0.01 AND 0.05)",
    "l_discount NOT BETWEEN 0.02 AND 0.08",
    "l_quantity IN (1, 2, 3)",
    "l_quantity NOT IN (1, 2, 3)",
    "l_shipmode LIKE 'AIR%'",
    "l_shipmode NOT LIKE '%TRUCK%'",
    "l_shipmode IN ('AIRÉ', '', '✈ TRUCK')",
    "l_tax IS NULL",
    "l_tax IS NOT NULL",
    "NOT (l_quantity < 5 OR l_quantity > 45)",
    "l_quantity + 1 > l_tax * 100",
]

hive_rows = st.lists(
    st.fixed_dictionaries(
        {
            "l_quantity": st.one_of(st.none(), st.integers(0, 50)),
            "l_tax": st.one_of(st.none(), st.sampled_from([0.0, 0.04, 0.09])),
            "l_discount": st.one_of(
                st.none(), st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1])
            ),
            "l_shipmode": st.one_of(
                st.none(),
                st.sampled_from(
                    ["AIR", "TRUCK", "AIR REG", "MAIL", "", "AIRÉ", "✈ TRUCK", "MÄIL"]
                ),
            ),
        }
    ),
    min_size=1,
    max_size=20,
)
HIVE_TYPES = {"l_quantity": "i", "l_tax": "f", "l_discount": "f", "l_shipmode": "s"}


@pytest.fixture(scope="module")
def mmap_partition(tmp_path_factory):
    """Writes rows as a one-partition mmap file and returns its store."""
    root = tmp_path_factory.mktemp("hive_rows")
    counter = itertools.count()

    def write(rows):
        path = root / f"rows{next(counter)}.rcs"
        with MmapDatasetWriter(path, tuple(HIVE_TYPES), tuple(HIVE_TYPES.values())) as writer:
            writer.write_rows(rows)
        return MmapDataset(path).partition_store(0)

    return write


@pytest.mark.parametrize("condition", HIVE_CONDITIONS)
@settings(max_examples=50, deadline=None)
@given(rows=hive_rows)
def test_hive_predicates_agree_across_paths(condition, rows, mmap_partition):
    statement = parse_statement(f"SELECT * FROM lineitem WHERE {condition}")
    predicate = compile_predicate(statement.where, LINEITEM_SCHEMA)
    expected_hits, _scanned = interpreted(predicate, rows, 0, len(rows), None)
    assert batch_decisions(predicate, rows) == expected_hits
    # The same rows from an mmap partition: the first (cold) scan reads
    # l_shipmode value by value, the second (warm) one from its decoded
    # list, which the third reuses.
    store = mmap_partition(rows)
    matcher = compile_batch_matcher(predicate)
    for _state in ("cold", "warm", "reused"):
        hits: list[int] = []
        columns = store.scan_columns(store.num_rows)
        assert matcher(columns, 0, store.num_rows, None, hits.append) == len(rows)
        assert hits == expected_hits
    if "l_shipmode" in condition:
        assert isinstance(store.scan_columns(store.num_rows)["l_shipmode"], list)
