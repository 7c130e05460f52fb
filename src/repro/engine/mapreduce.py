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

    The scan engine adds a columnar fast path: for a mapper that
    overrides :meth:`scan`, it hands that the split's
    :class:`~repro.scan.columnar.ColumnStore` instead of driving
    :meth:`run` row by row (:func:`repro.scan.engine.run_map_task`).
    Any other mapper runs :meth:`run`.
    """

    def setup(self, context: MapContext) -> None:
        """Called once before the first record."""

    def map(self, key: Any, value: Any, context: MapContext) -> None:
        raise NotImplementedError

    def cleanup(self, context: MapContext) -> None:
        """Called once after the last record."""

    def scan_task_spec(self):
        """Process-executor hook: this mapper's work as a shippable spec.

        A mapper that implements :meth:`scan` may return a
        :class:`repro.scan.proc.ScanTaskSpec` so the runtime can run
        that scan in a worker process over an mmap dataset; the parent
        then builds the outputs from the worker's hit indices
        (:func:`repro.scan.proc.materialize_outputs`). The default
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

    def scan(self, store, context: MapContext) -> None:
        """The columnar task main loop: scan the split's whole column
        store and fill ``context`` (``records_read`` and ``outputs``).

        Only mappers that override it are driven this way: the scan
        engine checks for an override, so the base method is never
        called.
        """
        raise NotImplementedError


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
