"""User-facing map/reduce interfaces.

Mirrors the classic Hadoop 0.20 contract:

    map(k1, v1)            -> list(k2, v2)
    reduce(k2, list(v2))   -> list(k3, v3)

Mappers and reducers are instantiated per task from factories held in the
JobConf, so task-local state (e.g. Algorithm 1's ``foundRecords`` counter)
is private to each task, exactly as in Hadoop.
"""

from __future__ import annotations

from typing import Any, Iterable


class MapContext:
    """Collects a map task's output and progress counters."""

    __slots__ = ("outputs", "records_read")

    def __init__(self) -> None:
        self.outputs: list[tuple[Any, Any]] = []
        self.records_read = 0

    def emit(self, key: Any, value: Any) -> None:
        self.outputs.append((key, value))

    @property
    def outputs_produced(self) -> int:
        return len(self.outputs)


class ReduceContext:
    """Collects a reduce task's final output."""

    __slots__ = ("outputs",)

    def __init__(self) -> None:
        self.outputs: list[tuple[Any, Any]] = []

    def emit(self, key: Any, value: Any) -> None:
        self.outputs.append((key, value))


class Mapper:
    """Base mapper. Subclasses override :meth:`map`.

    One instance is created per map task; :meth:`setup` / :meth:`cleanup`
    bracket the record loop as in Hadoop.

    The scan engine adds a columnar fast path: when a split is stored (or
    cached) column-major, the engine calls :meth:`run_batches` with
    :class:`~repro.scan.columnar.ColumnBatch` views instead of driving
    :meth:`run` row by row. Mappers that can scan whole batches override
    :meth:`run_batch`; the default re-synthesizes row dicts so any mapper
    stays correct under either layout.
    """

    def setup(self, context: MapContext) -> None:
        """Called once before the first record."""

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        raise NotImplementedError

    def cleanup(self, context: MapContext) -> None:
        """Called once after the last record."""

    def prepare_scan(self, mode: str) -> None:
        """Scan-engine hook, called once before the record loop.

        ``mode`` is one of ``interpreted`` / ``compiled`` / ``batch``
        (see :mod:`repro.scan.engine`). In ``compiled`` mode, mappers
        that evaluate predicates swap in a compiled row matcher here; in
        ``batch`` mode they compile only the batch matcher their
        :meth:`run_batch` calls. The default ignores it.
        """

    def scan_task_spec(self):
        """Process-executor hook: this mapper's work as a shippable spec.

        Mappers whose whole map phase is "match a predicate, emit (key,
        row) pairs, optionally capped" return a
        :class:`repro.scan.proc.ScanTaskSpec` so the runtime can run the
        scan in a worker process over an mmap dataset. The default
        (None) keeps the mapper on the in-process path — always correct,
        never parallel across processes.
        """
        return None

    def run(self, records: Iterable[tuple[Any, Any]], context: MapContext) -> None:
        """The task main loop (override for whole-split algorithms)."""
        self.setup(context)
        for key, value in records:
            context.records_read += 1
            self.map(key, value, context)
        self.cleanup(context)

    def run_batches(self, batches: Iterable, context: MapContext) -> None:
        """The batch-mode task main loop.

        ``batches`` yields :class:`~repro.scan.columnar.ColumnBatch`
        views in split order. A :meth:`run_batch` returning True stops
        the scan mid-split (the LIMIT short-circuit) — remaining batches
        are never materialized, so ``records_read`` counts only rows
        actually scanned.
        """
        self.setup(context)
        for batch in batches:
            if self.run_batch(batch, context):
                break
        self.cleanup(context)

    def run_batch(self, batch, context: MapContext) -> bool:
        """Process one columnar batch; return True to stop scanning.

        Default: per-row fallback over synthesized dicts, byte-identical
        to :meth:`run` on the same split.
        """
        for key, row in batch.iter_indexed_rows():
            context.records_read += 1
            self.map(key, row, context)
        return False


class Reducer:
    """Base reducer. Subclasses override :meth:`reduce`."""

    def setup(self, context: ReduceContext) -> None:
        """Called once before the first key group."""

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        raise NotImplementedError

    def cleanup(self, context: ReduceContext) -> None:
        """Called once after the last key group."""

    def run(
        self, groups: Iterable[tuple[Any, list]], context: ReduceContext
    ) -> None:
        self.setup(context)
        for key, values in groups:
            self.reduce(key, values, context)
        self.cleanup(context)


class IdentityMapper(Mapper):
    """Emits every input pair unchanged."""

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        context.emit(key, value)


class IdentityReducer(Reducer):
    """Emits every (key, value) of each group unchanged."""

    def reduce(self, key: Any, values: list, context: ReduceContext) -> None:
        for value in values:
            context.emit(key, value)
