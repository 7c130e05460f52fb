"""Map-task execution over splits: the scan engine's entry point.

Both real-execution substrates — the :class:`~repro.engine.runtime.LocalRunner`
and the simulated cluster's TaskTrackers — execute a map task by calling
:func:`run_map_task`. The mapper's type picks the loop:

* ``batch`` — a mapper that overrides ``Mapper.run_batch`` (the
  sampling, scan and approx mappers) scans the split's columnar batches
  through its generated batch matcher
  (:func:`repro.scan.codegen.compile_batch_matcher`), whose first stage
  evaluates numeric ``column <op> literal`` conjuncts with numpy over
  mmap columns (:func:`repro.scan.codegen.scan_kernel`).
* ``row`` — any other mapper runs the plain ``Mapper.run`` row loop.

``Predicate.matches`` is not on this path: it is the reference the
property suites hold the generated matchers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.engine.mapreduce import MapContext, Mapper


@dataclass(frozen=True)
class ScanSpan:
    """Timing record for one map-task scan (observability layer).

    ``mode`` names the loop that ran, ``batch`` or ``row``.
    ``elapsed_s`` is wall clock, so spans are diagnostic only — they
    never feed job results or anything else that must be deterministic.
    """

    split_id: str
    mode: str
    rows: int
    outputs: int
    elapsed_s: float


def run_map_task(
    conf,
    split,
    *,
    span_sink: Callable[[ScanSpan], None] | None = None,
) -> MapContext:
    """Execute ``conf``'s mapper over one materialized split.

    Returns the filled :class:`MapContext`; ``records_read`` reflects
    the rows actually scanned (early exit included), which is what the
    Input Provider progress statistics are built from.

    ``span_sink``, when given, receives one :class:`ScanSpan` with the
    scan's row counts and wall-clock duration. The scan itself is
    untouched by it — the hot loop carries no timing code, the clock is
    read once on each side of the scan, and output bytes are identical
    with or without a sink.
    """
    mapper = conf.mapper_factory()
    context = MapContext()
    start = perf_counter() if span_sink is not None else 0.0
    if type(mapper).run_batch is not Mapper.run_batch:
        mode = "batch"
        mapper.run_batches(split.iter_batches(), context)
    else:
        mode = "row"
        mapper.run(enumerate(split.iter_rows()), context)
    elapsed = perf_counter() - start if span_sink is not None else 0.0
    if span_sink is not None:
        span_sink(
            ScanSpan(
                split_id=split.split_id,
                mode=mode,
                rows=context.records_read,
                outputs=context.outputs_produced,
                elapsed_s=elapsed,
            )
        )
    return context
