"""Property tests for split-statistics pruning soundness.

The one invariant everything rests on (ISSUE satellite 3): a split the
analyzer prunes (``may_match`` False) NEVER contains a matching row, and
dually a split proven all-matching (``matches_all`` True) contains no
non-matching row — across random data (with NULLs) and random WHERE
trees of comparisons under AND/OR/NOT over both typed columns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.predicates import ColumnCompare
from repro.hive.ast import Column, Comparison, Literal, LogicalAnd, LogicalNot, LogicalOr
from repro.hive.expressions import compile_predicate
from repro.scan.mmapstore import collect_column_stats
from repro.scan.prune import matches_all, may_match

OPS = ("=", "!=", "<", "<=", ">", ">=")

int_values = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=0,
    max_size=12,
)
str_values = st.lists(
    st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", "ee", ""])),
    min_size=0,
    max_size=12,
)

int_literal = st.integers(min_value=-55, max_value=55)
str_literal = st.sampled_from(["a", "b", "c", "dd", "ee", "", "zz"])


def _compare(column, op, value):
    return Comparison(op, Column(column), Literal(value))


leaf = st.one_of(
    st.builds(_compare, st.just("x"), st.sampled_from(OPS), int_literal),
    st.builds(_compare, st.just("s"), st.sampled_from(OPS), str_literal),
)


def trees(depth):
    """WHERE ASTs: comparisons nested ``depth`` deep under AND/OR/NOT."""
    if depth == 0:
        return leaf
    child = trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(LogicalNot, child),
        st.builds(LogicalAnd, child, child),
        st.builds(LogicalOr, child, child),
    )


def row_matches(expression, row):
    """Engine semantics: a comparison over NULL is false (collapsed 3VL)."""
    if isinstance(expression, LogicalAnd):
        return row_matches(expression.left, row) and row_matches(expression.right, row)
    if isinstance(expression, LogicalOr):
        return row_matches(expression.left, row) or row_matches(expression.right, row)
    if isinstance(expression, LogicalNot):
        return not row_matches(expression.operand, row)
    column, op, literal = expression.left.name, expression.op, expression.right.value
    return ColumnCompare(column, op, literal).matches(row)


@given(ints=int_values, strs=str_values, tree=trees(2))
@settings(max_examples=300, deadline=None)
def test_pruned_split_never_contains_a_match(ints, strs, tree):
    rows = max(len(ints), len(strs))
    ints = ints + [None] * (rows - len(ints))
    strs = strs + [None] * (rows - len(strs))
    stats = {
        "x": collect_column_stats("i", ints, bloom_bits=256),
        "s": collect_column_stats("s", strs, bloom_bits=256),
    }
    data = [{"x": x, "s": s} for x, s in zip(ints, strs)]
    predicate = compile_predicate(tree, None)
    matching = [row for row in data if row_matches(tree, row)]
    if not may_match(predicate, stats):
        assert matching == [], (
            f"pruned split contains matches: {predicate!r} -> {matching}"
        )
    if matches_all(predicate, stats):
        assert len(matching) == len(data), (
            f"matches_all split contains non-matches: {predicate!r}"
        )


@given(values=int_values, literal=int_literal, op=st.sampled_from(OPS))
@settings(max_examples=300, deadline=None)
def test_single_comparison_soundness(values, literal, op):
    stats = {"x": collect_column_stats("i", values, bloom_bits=128)}
    predicate = ColumnCompare("x", op, literal)
    matching = sum(
        1 for v in values if v is not None and predicate.matches({"x": v})
    )
    if not may_match(predicate, stats):
        assert matching == 0
    if matches_all(predicate, stats):
        assert matching == len(values)
