"""Map-task execution over splits: the scan engine's entry point.

Both real-execution substrates — the :class:`~repro.engine.runtime.LocalRunner`
and the simulated cluster's TaskTrackers — execute a map task by calling
:func:`run_map_task`, which picks the scan path:

* ``batch`` (default) — columnar batches through ``Mapper.run_batches``
  when the mapper implements a batch fast path; everything else falls
  back to the per-row loop with a compiled predicate.
* ``compiled`` — the classic per-row loop, but predicates evaluate
  through :func:`repro.scan.codegen.compile_row_matcher` closures.
* ``interpreted`` — the original per-row loop with interpreted
  ``Predicate.matches`` dispatch; kept as the cross-checking fallback.

All three paths produce byte-identical output (rows, order, counters);
the equivalence tests assert it. The batch path's generated matcher
evaluates numeric ``column <op> literal`` conjuncts with numpy over mmap
columns first (:func:`repro.scan.codegen.scan_kernel`); the other two
paths never do, which makes them the cross-check. Per-job overrides ride
on the JobConf string parameters ``scan.mode`` / ``scan.batch.size``; a
Hive session forwards its ``SET`` values of both into every job it
compiles. The process map executor runs the batch matcher whatever the
mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.mapreduce import MapContext, Mapper
from repro.errors import JobConfError
from repro.obs import profile as _profile
from repro.obs.profile import wall_clock
from repro.scan.columnar import DEFAULT_BATCH_SIZE

SCAN_INTERPRETED = "interpreted"
SCAN_COMPILED = "compiled"
SCAN_BATCH = "batch"
SCAN_MODES = (SCAN_INTERPRETED, SCAN_COMPILED, SCAN_BATCH)

# JobConf parameter names (Hadoop-style string params). A Hive session's
# ``SET scan.mode`` / ``SET scan.batch.size`` reach every job it compiles
# (repro.hive.compiler), and ScanOptions.with_conf validates them.
SCAN_MODE_PARAM = "scan.mode"
SCAN_BATCH_SIZE_PARAM = "scan.batch.size"


@dataclass(frozen=True)
class ScanOptions:
    """How a substrate should drive mappers over materialized splits."""

    mode: str = SCAN_BATCH
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.mode not in SCAN_MODES:
            raise JobConfError(
                f"unknown scan mode {self.mode!r}; one of {SCAN_MODES}"
            )
        if self.batch_size < 1:
            raise JobConfError(
                f"scan batch size must be >= 1, got {self.batch_size}"
            )

    def with_conf(self, conf) -> "ScanOptions":
        """These options overridden by the JobConf's scan parameters."""
        mode = conf.get(SCAN_MODE_PARAM)
        size = conf.get_int(SCAN_BATCH_SIZE_PARAM)
        if mode is None and size is None:
            return self
        return ScanOptions(
            mode=mode if mode is not None else self.mode,
            batch_size=size if size is not None else self.batch_size,
        )


@dataclass(frozen=True)
class ScanSpan:
    """Timing record for one map-task scan (observability layer).

    ``elapsed_s`` is wall clock, so spans are diagnostic only — they
    never feed job results or anything else that must be deterministic.
    """

    split_id: str
    mode: str
    batch_size: int
    rows: int
    outputs: int
    elapsed_s: float

    @property
    def rows_per_sec(self) -> float | None:
        return self.rows / self.elapsed_s if self.elapsed_s > 0 else None


def run_map_task(
    conf,
    split,
    options: ScanOptions | None = None,
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
    options = (options or ScanOptions()).with_conf(conf)
    mapper = conf.mapper_factory()
    context = MapContext()
    mapper.prepare_scan(options.mode)
    # ScanSpan timings read the shared profiler clock (wall_clock), and
    # the clock reads sit inside the profiler's scan.map_task span, so
    # per-split spans in a trace and the profile.scan.map_task phase in
    # a metrics snapshot can be joined: phase wall >= sum of elapsed_s.
    with _profile.profiled_span(_profile.PHASE_SCAN):
        start = wall_clock() if span_sink is not None else 0.0
        if options.mode == SCAN_BATCH and _has_batch_path(mapper):
            mapper.run_batches(split.iter_batches(options.batch_size), context)
        else:
            mapper.run(
                ((index, row) for index, row in enumerate(split.iter_rows())), context
            )
        elapsed = wall_clock() - start if span_sink is not None else 0.0
    if span_sink is not None:
        span_sink(
            ScanSpan(
                split_id=split.split_id,
                mode=options.mode,
                batch_size=options.batch_size,
                rows=context.records_read,
                outputs=context.outputs_produced,
                elapsed_s=elapsed,
            )
        )
    return context


def _has_batch_path(mapper: Mapper) -> bool:
    """True when the mapper overrides the batch hook.

    Mappers that never specialized ``run_batch`` gain nothing from the
    columnar layout (the default would just re-synthesize row dicts), so
    they keep the plain row loop — identical behavior, no transpose cost.
    """
    return type(mapper).run_batch is not Mapper.run_batch
