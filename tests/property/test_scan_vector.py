"""Property tests: the batch scan's vectorized first stage.

The generated batch matcher hands the numeric ``column <op> literal``
conjuncts of its top-level AND to :func:`repro.scan.codegen.scan_kernel`
(numpy over the mmap buffers) and tests the other conjuncts only on the
rows the kernel returns. Over random mmap partitions — int columns with
values at the edges of int64 and of float64 exactness, float columns
with NaN, signed zeros and infinities, NULLs, a string column and a bool
column — the matcher must give the interpreted loop's hits and scanned
counts for every limit, in one call or in chunks of the shared scan loop
(``scan_partition``), as the process worker's telemetry path scans. The
kernel must run where numpy compares exactly as Python does and decline
everywhere else, and each column is looked up once per call.
"""

import itertools
import math
import pickle
from collections import Counter
from collections.abc import Mapping
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.data.predicates import ColumnCompare, MarkerEquals
from repro.hive.ast import (
    Between,
    Column,
    Comparison,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
)
from repro.hive.expressions import compile_predicate
from repro.scan import codegen, mmapstore
from repro.scan.codegen import (
    batch_matcher_source,
    compile_batch_matcher_from_source,
    scan_kernel,
)
from repro.scan.columnar import ColumnStore
from repro.scan.mmapstore import MmapDataset, MmapDatasetWriter, NullableColumn
from repro.scan.engine import scan_partition
from tests.unit.test_scan_equivalence import interpreted
from tests.unit.test_scan_equivalence import predicates as small_core_trees

OPS = ("=", "!=", "<", "<=", ">", ">=")
NAMES = ("a", "b", "c", "d", "s", "f")
TYPES = ("i", "f", "i", "f", "s", "b")
INTS = ("a", "c")  # a has NULLs, c never
FLOATS = ("b", "d")  # b has NULLs, d never
NUMERIC = INTS + FLOATS

INT_EDGES = [
    0, 1, -1, 2**53, -(2**53), 2**53 - 1, 2**53 + 1, 2**53 + 3, -(2**53) - 3,
    2**63 - 1, -(2**63),
]
FLOAT_EDGES = [
    math.nan, 0.0, -0.0, math.inf, -math.inf, 0.09, 1.0, -1.0,
    2.0**53, 2.0**53 + 2, 2.0**53 + 4, -(2.0**53),
]
BEYOND_INT64 = [2**63, -(2**63) - 1, 2**64]
MODES = ["AIR", "RAIL", "", "é✈"]

int_values = st.one_of(st.sampled_from(INT_EDGES), st.integers(-3, 3))
float_values = st.one_of(
    st.sampled_from(FLOAT_EDGES), st.floats(-3, 3, allow_nan=False)
)
VALUES = {
    "a": st.one_of(st.none(), int_values),
    "b": st.one_of(st.none(), float_values),
    "c": int_values,
    "d": float_values,
    "s": st.one_of(st.none(), st.sampled_from(MODES)),
    "f": st.one_of(st.none(), st.booleans()),
}
rows_strategy = st.lists(st.fixed_dictionaries(VALUES), min_size=1, max_size=40)

#: Literals a numeric column is compared with: kernel leaves (ints and
#: floats, edge values included) and residual ones (NULL, bools, ints
#: beyond int64, which the kernel declines).
numeric_literals = st.one_of(
    int_values,
    float_values,
    st.sampled_from(BEYOND_INT64),
    st.booleans(),
    st.none(),
)
string_literals = st.one_of(st.sampled_from(MODES), st.none())


# ---------------------------------------------------------------------------
# Predicates: Hive WHERE trees under a top-level AND, compiled as a
# session compiles them. Core trees hold only comparisons of a column
# with a literal; the Hive trees add the rest of the grammar.
# ---------------------------------------------------------------------------
def _compare(column, op, value, literal_first):
    if literal_first:
        return Comparison(op, Literal(value), Column(column))
    return Comparison(op, Column(column), Literal(value))


def core_leaves():
    numeric = st.builds(
        _compare, st.sampled_from(NUMERIC + ("f",)), st.sampled_from(OPS),
        numeric_literals, st.booleans(),
    )
    strings = st.builds(
        _compare, st.just("s"), st.sampled_from(OPS), string_literals,
        st.booleans(),
    )
    return st.one_of(numeric, numeric, strings)


#: Literals where an inexact numpy comparison would show: an int64 value
#: near 2**53 rounds when cast to float64, and so does an int literal
#: past 2**53 compared with a float64 column.
NEAR_2_53 = [
    2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, -(2**53) - 3,
    2.0**53, 2.0**53 + 2, 2.0**53 + 4, -(2.0**53),
]

#: Conjuncts the kernel should take: a numeric column against an int or
#: float literal (it still declines the inexact ones, such as an int
#: column against a float, or a float column against an int past 2**53).
kernel_compares = st.one_of(
    st.builds(
        _compare, st.sampled_from(INTS), st.sampled_from(OPS), int_values,
        st.booleans(),
    ),
    st.builds(
        _compare, st.sampled_from(NUMERIC), st.sampled_from(OPS),
        st.one_of(int_values, float_values, st.sampled_from(NEAR_2_53)),
        st.booleans(),
    ),
)


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(LogicalAnd, children, children),
            st.builds(LogicalOr, children, children),
            st.builds(LogicalNot, children),
        ),
        max_leaves=6,
    )


def conjunction(conjuncts):
    return st.lists(conjuncts, min_size=1, max_size=4).map(
        lambda conjuncts: compile_predicate(reduce(LogicalAnd, conjuncts), None)
    )


core_predicates = conjunction(st.one_of(kernel_compares, trees(core_leaves())))


def hive_leaves():
    numeric = st.builds(
        _compare, st.sampled_from(NUMERIC), st.sampled_from(OPS),
        numeric_literals, st.booleans(),
    )
    between = st.builds(
        Between,
        st.builds(Column, st.sampled_from(NUMERIC)),
        st.builds(Literal, numeric_literals),
        st.builds(Literal, numeric_literals),
        st.booleans(),
    )
    strings = st.one_of(
        st.builds(
            _compare, st.just("s"), st.sampled_from(OPS), string_literals,
            st.booleans(),
        ),
        st.builds(
            Like, st.just(Column("s")), st.sampled_from(["A%", "%R%", "_", ""]),
            st.booleans(),
        ),
        st.builds(IsNull, st.builds(Column, st.sampled_from(NAMES)), st.booleans()),
    )
    return st.one_of(
        numeric, numeric, between, strings, st.builds(Literal, st.booleans())
    )


hive_kernel_conjuncts = st.one_of(
    st.builds(
        _compare, st.sampled_from(NUMERIC), st.sampled_from(OPS),
        st.one_of(int_values, float_values, st.sampled_from(NEAR_2_53)),
        st.booleans(),
    ),
    st.builds(
        Between,
        st.builds(Column, st.sampled_from(NUMERIC)),
        st.builds(Literal, st.one_of(int_values, float_values)),
        st.builds(Literal, st.one_of(int_values, float_values)),
    ),
)
hive_predicates = conjunction(st.one_of(hive_kernel_conjuncts, trees(hive_leaves())))


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def write(tmp_path_factory):
    """Writes rows as a one-partition mmap file; returns its path."""
    root = tmp_path_factory.mktemp("vector_rows")
    counter = itertools.count()

    def write(rows):
        path = root / f"rows{next(counter)}.rcs"
        with MmapDatasetWriter(path, NAMES, TYPES) as writer:
            writer.write_rows(rows)
        return path

    return write


def open_store(path):
    return MmapDataset(path).partition_store(0)


def fresh_matcher(predicate):
    """A matcher compiled now from the shipped source, as a worker
    compiles it, so under ``kernel_answers`` it binds the spy (a cached
    matcher may hold another kernel)."""
    source, namespace = batch_matcher_source(predicate)
    return compile_batch_matcher_from_source(source, namespace)


def call(matcher, store, start, stop, limit):
    hits = []
    scanned = matcher(store.scan_columns(stop), start, stop, limit, hits.append)
    return hits, scanned


def chunked(matcher, store, limit, chunk_rows):
    """The whole partition in ``chunk_rows`` chunks of the shared scan
    loop, as a process worker's telemetry path scans it (negative
    remainders included)."""
    hits = []
    scanned = scan_partition(
        matcher, store, limit, hits, chunk=chunk_rows, on_chunk=lambda *_chunk: None
    )
    return hits, scanned


def limits(rows):
    return [None, 0, -3, *range(1, len(rows) + 2)]


def assert_agrees(predicate, store, data):
    rows = [store.row_at(i) for i in range(store.num_rows)]
    matcher = fresh_matcher(predicate)
    n = store.num_rows
    for limit in limits(rows):
        expected = interpreted(predicate, rows, 0, n, limit)
        assert call(matcher, store, 0, n, limit) == expected, limit
        chunk = data.draw(st.integers(1, 7), label="chunk rows")
        assert chunked(matcher, store, limit, chunk) == expected, (limit, chunk)
    start = data.draw(st.integers(0, n), label="start")
    stop = data.draw(st.integers(start, n), label="stop")
    limit = data.draw(st.sampled_from(limits(rows)), label="sub-range limit")
    expected = interpreted(predicate, rows, start, stop, limit)
    assert call(matcher, store, start, stop, limit) == expected


# ---------------------------------------------------------------------------
# Agreement with the interpreted loop
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(predicate=core_predicates, rows=rows_strategy, data=st.data())
def test_core_trees_agree_with_the_interpreted_loop(predicate, rows, data, write):
    assert_agrees(predicate, open_store(write(rows)), data)


@settings(max_examples=60, deadline=None)
@given(predicate=small_core_trees, rows=rows_strategy, data=st.data())
def test_small_literal_trees_agree_with_the_interpreted_loop(
    predicate, rows, data, write
):
    assert_agrees(predicate, open_store(write(rows)), data)


@settings(max_examples=150, deadline=None)
@given(predicate=hive_predicates, rows=rows_strategy, data=st.data())
def test_hive_where_clauses_agree_with_the_interpreted_loop(
    predicate, rows, data, write
):
    assert_agrees(predicate, open_store(write(rows)), data)


# ---------------------------------------------------------------------------
# Where the kernel runs, and where it declines
# ---------------------------------------------------------------------------
ROWS = [
    {
        "a": None if i % 4 == 1 else i - 10,
        "b": None if i % 5 == 2 else (i - 12) * 0.5,
        "c": 2**53 + i,
        "d": float(i),
        "s": MODES[i % len(MODES)],
        "f": None if i % 6 == 0 else i % 2 == 0,
    }
    for i in range(30)
]


@pytest.fixture()
def kernel_answers(monkeypatch):
    """Every kernel answer (None when it declined), in call order."""
    answers = []

    def spy(*args):
        answer = scan_kernel(*args)
        answers.append(answer)
        return answer

    monkeypatch.setattr(codegen, "scan_kernel", spy)
    # Sources generated here bind the spy; keep them out of the cache
    # that other tests read.
    monkeypatch.setattr(codegen, "_source_cache", {})
    return answers


@pytest.fixture(scope="module")
def table(write):
    return write(ROWS)


def run_both(predicate, store, limit=None):
    """The matcher's answer over the whole store, checked against the
    interpreted loop."""
    rows = [store.row_at(i) for i in range(store.num_rows)]
    answer = call(fresh_matcher(predicate), store, 0, store.num_rows, limit)
    assert answer == interpreted(predicate, rows, 0, store.num_rows, limit)
    return answer


def where(condition):
    return compile_predicate(
        reduce(LogicalAnd, condition) if isinstance(condition, list) else condition,
        None,
    )


KERNEL_PREDICATES = {
    "int leaf, NULL mask": ColumnCompare("a", "<=", 3),
    "int leaf, no mask": ColumnCompare("c", ">", 2**53 + 3),
    "float leaf, NULL mask": ColumnCompare("b", ">=", -1.5),
    "float leaf against an exact int": ColumnCompare("d", "!=", 2**53),
    "marker": MarkerEquals("d", 7.0),
    "Hive AND with a residual": where(
        [
            Comparison(">", Literal(5), Column("a")),
            Comparison("=", Column("s"), Literal("AIR")),
        ]
    ),
    "Hive BETWEEN": where(Between(Column("b"), Literal(-2), Literal(3.5))),
}


@pytest.mark.parametrize("name", list(KERNEL_PREDICATES))
def test_kernel_runs_for_mmap_int_and_float_leaves(name, table, kernel_answers):
    hits, _scanned = run_both(KERNEL_PREDICATES[name], open_store(table))
    assert len(kernel_answers) == 1 and kernel_answers[0] is not None
    assert set(hits) <= set(kernel_answers[0])


DECLINED = {
    "bool column": ColumnCompare("f", "=", 1),
    "int column, float literal": ColumnCompare("c", "<", 2.0**53 + 4),
    "int literal beyond int64": ColumnCompare("a", "<", 2**63),
    "float column, int literal beyond 2**53": ColumnCompare("d", "<", 2**53 + 1),
    "one declining leaf declines all": where(
        [
            Comparison("<=", Column("a"), Literal(3)),
            Comparison("<", Column("c"), Literal(1.5)),
        ]
    ),
}


@pytest.mark.parametrize("name", list(DECLINED))
def test_kernel_declines_inexact_comparisons(name, table, kernel_answers):
    run_both(DECLINED[name], open_store(table))
    assert kernel_answers == [None]


def test_comparisons_near_2_53_agree_with_the_loop(write):
    """Every operator against every literal near 2**53, on int and float
    columns holding the values that round when cast to float64."""
    near = [2**53 + k for k in range(-4, 5)]
    rows = [dict(a=v, b=float(v), c=v, d=float(v), s="", f=None) for v in near]
    store = open_store(write(rows))
    for column in NUMERIC:
        for op in OPS:
            for literal in NEAR_2_53:
                run_both(ColumnCompare(column, op, literal), store)


def test_kernel_declines_list_stores(kernel_answers):
    store = ColumnStore.from_rows(ROWS)
    predicate = ColumnCompare("a", "<=", 3)
    hits, _ = call(fresh_matcher(predicate), store, 0, len(ROWS), None)
    assert hits == interpreted(predicate, ROWS, 0, len(ROWS), None)[0]
    assert kernel_answers == [None]


def test_kernel_declines_struct_columns(table, kernel_answers, monkeypatch):
    # A host whose byte order is not little-endian reads columns value
    # by value through struct, never as a memoryview.
    monkeypatch.setattr(mmapstore, "_NATIVE_LE", False)
    store = open_store(table)
    assert isinstance(store.columns["a"], NullableColumn)
    assert isinstance(store.columns["c"], mmapstore._StructColumn)
    predicate = where(
        [
            Comparison("<=", Column("a"), Literal(3)),
            Comparison(">", Column("c"), Literal(0)),
        ]
    )
    run_both(predicate, store)
    assert kernel_answers == [None]


@pytest.mark.parametrize("limit", [1, 2, 5])
def test_kernel_cuts_its_answer_at_the_limit(limit, table, kernel_answers):
    predicate = ColumnCompare("d", ">=", 3.0)
    hits, scanned = run_both(predicate, open_store(table), limit)
    assert kernel_answers == [hits] and len(hits) == limit
    assert scanned == hits[-1] + 1


@pytest.mark.parametrize("limit", [None, 0, -3])
def test_limits_that_never_stop_keep_every_candidate(limit, table, kernel_answers):
    hits, scanned = run_both(ColumnCompare("d", ">=", 3.0), open_store(table), limit)
    assert kernel_answers == [hits] and len(hits) == len(ROWS) - 3
    assert scanned == len(ROWS)


def test_residual_sees_every_candidate(table, kernel_answers):
    """With a residual the kernel is not cut at the limit: the residual
    may still reject the first candidates."""
    predicate = where(
        [
            Comparison(">=", Column("d"), Literal(3.0)),
            Comparison("=", Column("s"), Literal("RAIL")),
        ]
    )
    hits, scanned = run_both(predicate, open_store(table), 2)
    assert len(kernel_answers[0]) == len(ROWS) - 3
    assert hits == [5, 9] and scanned == 9 + 1


# ---------------------------------------------------------------------------
# One lookup per column, and a shippable namespace
# ---------------------------------------------------------------------------
class CountingView(Mapping):
    def __init__(self, columns):
        self.columns = columns
        self.reads = Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self.columns[name]

    def __iter__(self):
        return iter(self.columns)

    def __len__(self):
        return len(self.columns)


LOOKUP_PREDICATES = [
    ColumnCompare("a", "<=", 3),
    where(
        [
            Comparison("=", Column("s"), Literal("AIR")),
            Comparison("<=", Column("a"), Literal(3)),
        ]
    ),
    DECLINED["one declining leaf declines all"],
    where(
        [
            Between(Column("b"), Literal(-2), Literal(3.5)),
            Like(Column("s"), "%R%"),
            Comparison("<", Column("b"), Literal(2)),
        ]
    ),
]


@pytest.mark.parametrize("index", range(len(LOOKUP_PREDICATES)))
def test_each_column_is_looked_up_once_per_call(index, table):
    predicate = LOOKUP_PREDICATES[index]
    store = open_store(table)
    matcher = fresh_matcher(predicate)
    for _scan in ("cold", "warm", "reused"):
        view = CountingView(store.scan_columns(store.num_rows))
        matcher(view, 0, store.num_rows, None, [].append)
        assert view.reads and set(view.reads.values()) == {1}, view.reads


def test_namespace_ships_the_kernel_by_reference(table):
    predicate = KERNEL_PREDICATES["Hive AND with a residual"]
    source, namespace = batch_matcher_source(predicate)
    shipped = pickle.loads(pickle.dumps(namespace))
    assert shipped["_kernel"] is scan_kernel
    assert shipped["_leaves"] == (("a", "<", 5),)
    store = open_store(table)
    matcher = compile_batch_matcher_from_source(source, shipped)
    assert call(matcher, store, 0, store.num_rows, 3) == run_both(predicate, store, 3)
