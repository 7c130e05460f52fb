"""Map-task execution over splits: the scan engine's entry point.

Both real-execution substrates — the :class:`~repro.engine.runtime.LocalRunner`
and the simulated cluster's TaskTrackers — execute a map task by calling
:func:`run_map_task`. The mapper's type picks the loop:

* ``batch`` — a mapper that implements ``Mapper.scan`` (the sampling,
  scan and approx mappers) scans the split's column store with its
  generated batch matcher
  (:func:`repro.scan.codegen.compile_batch_matcher`), whose first stage
  evaluates numeric ``column <op> literal`` conjuncts with numpy over
  mmap columns (:func:`repro.scan.codegen.scan_kernel`).
* ``row`` — any other mapper runs the plain ``Mapper.run`` row loop.

:func:`scan_partition` is the one chunked scan loop: those mappers run
it in process, and the process executor's workers run it over their own
mapping of the same file (:func:`repro.scan.proc.run_scan_task`).

``Predicate.matches`` is not on this path: it is the reference the
property suites hold the generated matchers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.engine.mapreduce import MapContext, Mapper

DEFAULT_BATCH_SIZE = 4096
"""Rows per matcher call of :func:`scan_partition` when no chunk is given."""


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


def scan_partition(
    matcher,
    store,
    limit: int | None,
    hits: list[int],
    *,
    chunk: int | None = None,
    on_chunk: Callable[[int, int, float], None] | None = None,
) -> int:
    """Scan ``store`` with a batch matcher, chunk by chunk; returns the
    rows scanned.

    Appends each match's absolute row index to ``hits``, ascending, and
    stops at the ``limit``-th match (Algorithm 1's k; None, 0 or a
    negative number scans everything). Each matcher call covers
    ``chunk`` rows (:data:`DEFAULT_BATCH_SIZE`, read at call time, when
    None) of the store's scan view, so a string column decodes no more
    rows than the scan reaches. ``on_chunk(scanned so far, rows, wall_s)``
    runs after each call. Any chunking gives the hits and count of one
    call over the whole range.
    """
    if chunk is None:
        chunk = DEFAULT_BATCH_SIZE
    num_rows = store.num_rows
    scanned = 0
    position = 0
    while position < num_rows:
        end = min(position + chunk, num_rows)
        remaining = None if limit is None else limit - len(hits)
        chunk0 = perf_counter() if on_chunk is not None else 0.0
        rows = matcher(store.scan_columns(end), position, end, remaining, hits.append)
        scanned += rows
        if on_chunk is not None:
            on_chunk(scanned, rows, perf_counter() - chunk0)
        # limit=0 deliberately never breaks: the generated matcher's
        # early-exit check (``_n == _limit``) cannot fire for 0, so one
        # call over the whole range scans everything and chunks must too.
        if limit is not None and limit > 0 and len(hits) >= limit:
            break
        position = end
    return scanned


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
    untouched by it — the scan loop reads no clock, the span's is read
    once on each side of the scan, and output bytes are identical with
    or without a sink.
    """
    mapper = conf.mapper_factory()
    context = MapContext()
    start = perf_counter() if span_sink is not None else 0.0
    if type(mapper).scan is not Mapper.scan:
        mode = "batch"
        mapper.scan(split.column_store(), context)
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
