"""Predicate compilation via Python source codegen.

Interpreting a predicate tree row by row (``Predicate.matches``) costs,
per row, a generator resumption, an ``_OPERATORS`` dict dispatch, a
lambda frame, and one attribute walk per predicate node. This module
instead renders a predicate tree into a single Python boolean
expression, inlines it in a generated scan loop, and ``compile()``s it
once per predicate: :func:`compile_batch_matcher` returns a fused scan
over a :class:`~repro.scan.columnar.ColumnStore`'s column lists.
Referenced columns are bound to locals once per call, the predicate is
inlined in the loop body, and an optional match limit short-circuits
the scan mid-batch (Algorithm 1's LIMIT semantics). It returns the rows
scanned, so progress counters stay exact under early exit.

The batch matcher has a vectorized first stage. Its top-level AND is
split into *kernel leaves* — ``column <op> literal`` conjuncts whose
literal is exactly an ``int`` or a ``float`` — and the *residual*, every
other conjunct. When the leaves' columns are mmap int64/float64 buffers
(:mod:`repro.scan.mmapstore`) and numpy compares each leaf exactly as
Python would, :func:`scan_kernel` evaluates the leaves over zero-copy
numpy views, NULL masks applied, and the generated loop visits only the
candidate rows, testing only the residual. Otherwise the call runs the
plain loop over the whole range with the full expression. Either way
the rows, their order and the returned scanned count are the same.

The generated matcher implements the same NULL semantics as
``Predicate.matches``, which the property suites keep as its reference:
any comparison whose operand is ``None`` evaluates false. The leaf
predicates of :mod:`repro.data.predicates` render here; a compound
condition is a Hive WHERE tree, whose ``ExpressionPredicate`` renders
itself through the ``emit_source(emitter)`` hook. Any other predicate
type raises :class:`~repro.errors.ScanCompileError`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Protocol

import numpy as np

from repro.data.predicates import (
    ColumnCompare,
    MarkerEquals,
    Predicate,
    TruePredicate,
)
from repro.errors import ScanCompileError
from repro.scan.mmapstore import NullableColumn

#: Comparison operators that need a ``is not None`` guard: Python would
#: either raise (ordering) or invert the SQL result (``!=``) on None.
#: Plain ``=`` needs no guard — ``None == literal`` is already False for
#: the non-None literals the guard-free path is limited to.
_GUARDED_OPS = {"!=", "<", "<=", ">", ">="}
_VALID_OPS = {"=", "!=", "<", "<=", ">", ">="}


class BatchMatcher(Protocol):
    """A compiled scan over ``columns``' rows ``[start, stop)``.

    Calls ``append(i)`` for each matching absolute row index, in
    ascending order, and returns the rows scanned: ``k-th match - start
    + 1`` once ``limit`` matches are found, ``stop - start`` otherwise. A
    ``limit`` of None, 0 or a negative number never stops the scan. Each
    referenced column is looked up in ``columns`` once per call, whether
    or not the numpy kernel runs.
    """

    def __call__(
        self,
        columns: dict[str, list],
        start: int,
        stop: int,
        limit: int | None,
        append: Callable[[int], None],
    ) -> int: ...


class SourceEmitter:
    """Collects the constant pool and column bindings while a predicate
    tree renders itself to one Python expression string.

    ``ref(name)`` returns the source expression for the named column's
    current-row value.
    """

    def __init__(self, ref: Callable[[str], str]) -> None:
        self.ref = ref
        self.namespace: dict[str, object] = {}
        self._counter = 0

    def const(self, value: object) -> str:
        """Bind ``value`` into the compiled function's globals."""
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        """A fresh temp-variable name for walrus-bound subexpressions."""
        name = f"_t{self._counter}"
        self._counter += 1
        return name


def emit_predicate(pred: Predicate, em: SourceEmitter) -> str:
    """Render ``pred`` as a Python boolean expression string."""
    if isinstance(pred, TruePredicate):
        return "True"
    if isinstance(pred, ColumnCompare):
        return _emit_compare(em, pred.column, pred.op, pred.value)
    if isinstance(pred, MarkerEquals):
        return _emit_compare(em, pred.column, "=", pred.marker)
    emit = getattr(pred, "emit_source", None)  # a Hive ExpressionPredicate
    if emit is None:
        raise ScanCompileError(f"cannot compile predicate {pred!r}")
    return emit(em)


def _emit_compare(em: SourceEmitter, column: str, op: str, value: object) -> str:
    if op not in _VALID_OPS:
        raise ScanCompileError(f"cannot compile comparison operator {op!r}")
    if value is None:
        # SQL: comparing anything against NULL (even NULL) is not true.
        return "False"
    ref = em.ref(column)
    const = em.const(value)
    if op == "=":
        return f"({ref} == {const})"
    temp = em.temp()
    return f"(({temp} := {ref}) is not None and {temp} {op} {const})"


# ---------------------------------------------------------------------------
# Compilation entry points
# ---------------------------------------------------------------------------
_batch_cache: dict[Predicate, BatchMatcher] = {}
_source_cache: dict[Predicate, tuple[str, dict]] = {}


def compile_batch_matcher(pred: Predicate) -> BatchMatcher:
    """Compile ``pred`` into a fused columnar scan loop.

    The generated function scans ``columns`` over ``[start, stop)``,
    calls ``append(i)`` for each matching absolute row index, stops
    after ``limit`` matches (``None`` scans everything), and returns the
    number of rows actually scanned.
    """
    try:
        cached = _batch_cache.get(pred)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    matcher = compile_batch_matcher_from_source(*batch_matcher_source(pred))
    _cache_put(_batch_cache, pred, matcher)
    return matcher


def batch_matcher_source(pred: Predicate) -> tuple[str, dict]:
    """The batch matcher's generated source and constant namespace.

    Generated once per predicate and cached; every call returns its own
    copy of the namespace, so a caller may ``exec`` into it and the
    cached one stays picklable.

    This is the shippable form of a compiled predicate: the namespace
    holds column names and literals (and, when the predicate has kernel
    leaves, :func:`scan_kernel` by module reference plus a tuple of
    ``(column, op, literal)`` leaves), so ``(source, namespace)`` pickles
    and a map worker **process** can re-``compile()`` the matcher locally
    instead of receiving code objects (which don't pickle) or row data.
    A LIKE puts a compiled regex in the namespace, and an arithmetic
    WHERE :func:`repro.hive.expressions.checked_arithmetic` (by module
    reference) with its operator and expression text; both pickle too.

    Without kernel leaves the source is one loop over ``[start, stop)``
    testing the whole predicate. With them, the function first asks
    :func:`scan_kernel` for the rows that pass every leaf. If the kernel
    answers, one loop visits only those rows and tests the residual
    conjuncts, in their original order; if it declines, the plain loop
    runs. A residual conjunct that would raise (division by zero, a type
    mismatch) is therefore only evaluated on rows every leaf passed.
    """
    try:
        cached = _source_cache.get(pred)
    except TypeError:
        cached = None
    if cached is None:
        cached = _batch_source(pred)
        _cache_put(_source_cache, pred, cached)
    source, namespace = cached
    return source, dict(namespace)


def _batch_source(pred: Predicate) -> tuple[str, dict]:
    col_vars: dict[str, str] = {}

    def ref(name: str) -> str:
        var = col_vars.get(name)
        if var is None:
            var = f"_col{len(col_vars)}"
            col_vars[name] = var
        return f"{var}[_i]"

    em = SourceEmitter(ref=ref)
    expr = emit_predicate(pred, em)
    leaves: list[tuple[str, str, object]] = []
    residual: list[Callable[[SourceEmitter], str]] = []
    _split_conjuncts(pred, leaves, residual)
    lines = ["def _scan(_cols, _start, _stop, _limit, _append):"]
    lines += [
        f"    {var} = _cols[{_name_const(em, name)}]"
        for name, var in col_vars.items()
    ]
    lines.append("    _n = 0")
    if leaves:
        em.namespace["_kernel"] = scan_kernel
        em.namespace["_leaves"] = tuple(leaves)
        bound = ", ".join(col_vars[column] for column, _op, _value in leaves)
        if residual:
            # The residual may still reject candidates, so the kernel
            # returns them all and the loop counts matches to the limit.
            test = " and ".join(emit(em) for emit in residual)
            lines.append(f"    _hits = _kernel(_leaves, ({bound},), _start, _stop, None)")
            lines.append("    if _hits is not None:")
            lines += _loop("        ", "_hits", test)
        else:
            # Every candidate matches, and the kernel cut them at the limit.
            lines += [
                f"    _hits = _kernel(_leaves, ({bound},), _start, _stop, _limit)",
                "    if _hits is not None:",
                "        for _i in _hits:",
                "            _append(_i)",
                "        if _hits and len(_hits) == _limit:",
                "            return _hits[-1] - _start + 1",
            ]
        lines.append("        return _stop - _start")
    lines += _loop("    ", "range(_start, _stop)", expr)
    lines.append("    return _stop - _start")
    return "\n".join(lines) + "\n", em.namespace


def _loop(pad: str, rows: str, test: str) -> list[str]:
    """Source lines of the match loop over ``rows``: append each row that
    passes ``test`` and stop at the limit."""
    return [
        f"{pad}for _i in {rows}:",
        f"{pad}    if {test}:",
        f"{pad}        _append(_i)",
        f"{pad}        _n += 1",
        f"{pad}        if _n == _limit:",
        f"{pad}            return _i - _start + 1",
    ]


# ---------------------------------------------------------------------------
# The vectorized first stage: kernel leaves and the numpy kernel
# ---------------------------------------------------------------------------
def _split_conjuncts(pred: Predicate, leaves: list, residual: list) -> None:
    """Sort ``pred``'s top-level AND conjuncts into kernel ``leaves``
    (``(column, op, literal)`` tuples) and ``residual`` emitters.

    Flattens Hive ``LogicalAnd`` through an ``ExpressionPredicate``'s
    WHERE AST. A leaf compares one column with a literal whose type is
    exactly ``int`` or ``float``; everything else is residual, emitted by
    the same emitters as the full expression.
    """
    if isinstance(pred, ColumnCompare) and _is_kernel_literal(pred.value):
        leaves.append((pred.column, pred.op, pred.value))
    elif isinstance(pred, MarkerEquals) and _is_kernel_literal(pred.marker):
        leaves.append((pred.column, "=", pred.marker))
    elif getattr(pred, "expression", None) is not None:
        # ExpressionPredicate, duck-typed as in repro.scan.prune.
        _split_expression(pred.expression, pred.schema, leaves, residual)
    else:
        residual.append(partial(emit_predicate, pred))


def _split_expression(expression, schema, leaves: list, residual: list) -> None:
    # Imported here, as in repro.scan.prune: the hive package reaches
    # back into core/, and by the time an AST compiles, hive is loaded.
    from repro.hive.ast import Between, Column, Literal, LogicalAnd
    from repro.hive.expressions import (
        as_simple_comparison,
        emit_condition,
        resolve_column,
    )

    nodes = [expression]
    while nodes:
        node = nodes.pop()
        if isinstance(node, LogicalAnd):
            nodes += (node.right, node.left)
            continue
        simple = as_simple_comparison(node, schema)
        if simple is not None and _is_kernel_literal(simple.value):
            leaves.append((simple.column, simple.op, simple.value))
        elif (
            isinstance(node, Between)
            and not node.negated
            and isinstance(node.operand, Column)
            and isinstance(node.low, Literal)
            and isinstance(node.high, Literal)
            and _is_kernel_literal(node.low.value)
            and _is_kernel_literal(node.high.value)
        ):
            column = resolve_column(node.operand.name, schema)
            leaves.append((column, ">=", node.low.value))
            leaves.append((column, "<=", node.high.value))
        else:
            residual.append(partial(emit_condition, node, schema=schema))


def _is_kernel_literal(value: object) -> bool:
    # Exactly int or float: bool is an int subclass, and numpy would
    # compare True as 1 where the scan loop compares it as a bool.
    return type(value) is int or type(value) is float


#: numpy's comparison for each operator.
_UFUNCS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_DTYPES = {"q": np.int64, "d": np.float64}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: Every int of at most this magnitude is exactly a float64.
_FLOAT_EXACT = 2**53


def scan_kernel(
    leaves: tuple[tuple[str, str, object], ...],
    columns: tuple,
    start: int,
    stop: int,
    limit: int | None,
) -> list[int] | None:
    """The rows of ``[start, stop)`` that pass every leaf, ascending, or
    None when numpy's answer could differ from the scan loop's.

    ``columns`` holds each leaf's column as the generated matcher bound
    it; the kernel never looks a column up itself. It answers only when
    every column is a native int64 (``q``) or float64 (``d``)
    ``memoryview``, or a :class:`NullableColumn` over one, and every
    comparison is exact in numpy: an int64 column against an int literal
    inside int64, a float64 column against a float literal, or a float64
    column against an int literal of magnitude at most 2**53. An int64
    column against a float literal declines: numpy casts the column to
    float64, so ``2**53 + 3 < 2.0**53 + 4`` would read false. A NULL row
    never matches. A positive ``limit`` cuts the answer at that many rows.
    """
    count = max(0, stop - start)  # numpy reads a count of -1 as "all"
    match = None
    for (_column, op, literal), column in zip(leaves, columns):
        nulls = None
        if type(column) is NullableColumn:
            column, nulls = column.values, column.mask
        if type(column) is not memoryview or not _exact(column.format, literal):
            return None
        values = np.frombuffer(column, _DTYPES[column.format], count, 8 * start)
        test = _UFUNCS[op](values, literal)
        if nulls is not None:
            test &= np.frombuffer(nulls, np.uint8, count, start) == 0
        if match is None:
            match = test
        else:
            match &= test
    hits = match.nonzero()[0]
    if limit is not None and limit > 0:
        hits = hits[:limit]
    if start:
        hits += start
    return hits.tolist()


def _exact(fmt: str, literal: object) -> bool:
    """True when numpy compares a ``fmt`` column with ``literal`` exactly."""
    if type(literal) is int:
        if fmt == "q":
            return _INT64_MIN <= literal <= _INT64_MAX
        return fmt == "d" and -_FLOAT_EXACT <= literal <= _FLOAT_EXACT
    return fmt == "d" and type(literal) is float


def compile_batch_matcher_from_source(source: str, namespace: dict) -> BatchMatcher:
    """Build a batch matcher from :func:`batch_matcher_source` output.

    Every matcher compiles here: :func:`compile_batch_matcher` in
    process, and a process map worker from the source string and
    constant pool the parent ships, the first time it meets that pair
    (``repro.scan.proc`` keeps the compiled matchers). The namespace
    dict is mutated by ``exec`` (it gains the function object), so
    callers should pass a copy if they intend to reuse it.
    """
    try:
        code = compile(source, "<scan>", "exec")
    except SyntaxError as exc:  # pragma: no cover - emitter bug guard
        raise ScanCompileError(f"invalid scan source: {exc}\n{source}") from exc
    exec(code, namespace)
    fn = namespace["_scan"]
    fn.__scan_source__ = source  # introspection hook for tests/debugging
    return fn


def _name_const(em: SourceEmitter, name: str) -> str:
    # Column names are interned via the constant pool rather than quoted
    # inline so odd names (quotes, backslashes) cannot break the source.
    return em.const(name)


def _cache_put(cache: dict, pred: Predicate, fn) -> None:
    if len(cache) >= 512:  # bound long sessions compiling many ad-hoc queries
        cache.clear()
    try:
        cache[pred] = fn
    except TypeError:
        pass
