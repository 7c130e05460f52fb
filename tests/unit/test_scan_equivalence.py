"""Property tests: the three scan paths agree row-for-row.

Random predicate trees over random row batches (NULLs included) must
produce identical decisions through:

* the interpreted path (``Predicate.matches``),
* the compiled row matcher (:func:`compile_row_matcher`),
* the compiled batch scan (:func:`compile_batch_matcher`).

The same holds for predicates compiled from Hive WHERE expressions,
whose codegen goes through :func:`repro.hive.expressions.emit_condition`
instead of the core-predicate emitter, and for their batch scan over the
same rows written to an mmap partition, cold and with its string column
decoded.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.data.predicates import (
    And,
    ColumnCompare,
    MarkerEquals,
    Not,
    Or,
    TruePredicate,
)
from repro.data.tpch import LINEITEM_SCHEMA
from repro.hive.expressions import compile_predicate
from repro.hive.parser import parse_statement
from repro.scan.codegen import compile_batch_matcher, compile_row_matcher
from repro.scan.columnar import ColumnStore
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter

COLUMNS = ("a", "b", "c")

values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))

rows_strategy = st.lists(
    st.fixed_dictionaries({name: values for name in COLUMNS}),
    min_size=1,
    max_size=30,
)


def leaves():
    compares = st.builds(
        ColumnCompare,
        st.sampled_from(COLUMNS),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        values,
    )
    markers = st.builds(MarkerEquals, st.sampled_from(COLUMNS), values)
    return st.one_of(compares, markers, st.just(TruePredicate()))


predicates = st.recursive(
    leaves(),
    lambda children: st.one_of(
        st.builds(And, st.tuples(children, children)),
        st.builds(Or, st.tuples(children, children)),
        st.builds(Not, children),
    ),
    max_leaves=8,
)


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
    interpreted = [predicate.matches(row) for row in rows]
    row_matcher = compile_row_matcher(predicate)
    compiled = [bool(row_matcher(row)) for row in rows]
    assert compiled == interpreted
    expected_hits = [i for i, hit in enumerate(interpreted) if hit]
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
    interpreted = [predicate.matches(row) for row in rows]
    row_matcher = compile_row_matcher(predicate)
    assert [bool(row_matcher(row)) for row in rows] == interpreted
    expected_hits = [i for i, hit in enumerate(interpreted) if hit]
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
