"""Process map-worker protocol for the shared-memory multiprocess scan.

The :class:`~repro.engine.runtime.LocalRunner`'s ``map_executor="process"``
mode deals each map batch into one packed :class:`ScanTask` per worker —
the dataset file paths and file ranges of that worker's splits, plus the
compiled predicate's generated source once — never pickled rows. The
worker re-``mmap``s the file (the OS shares the page-cache pages with
every other worker and the parent), compiles the batch matcher once for
the whole task, scans each partition in batches, as the serial loop does
(so a string column that a worker's later tasks scan again is decoded
once per worker and partition), and returns only match indices and
counters, one :class:`ScanTaskResult` per partition. The parent
materializes output rows at the hit indices from its own mapping, so job
output is byte-identical to serial execution:

* **Rows & order** — hits come back in ascending row order, exactly the
  order the serial batch loop appends matches.
* **LIMIT-k accounting** — the generated matcher returns ``index of the
  k-th match + 1`` on early exit, a quantity independent of batch
  chunking (the batch-size parity tests pin this), so the worker's
  chunks yield the same ``records_read`` as the serial batch loop,
  whatever their size. The limit applies per partition, never
  across the partitions of a packed task.
* **Keys** — :class:`ScanTaskSpec.fixed_key` reproduces the sampling
  job's dummy-key emission; ``None`` keys each output by its absolute
  row index, the scan job's convention.

Everything in this module must stay importable and picklable from a bare
interpreter: worker processes receive :func:`run_scan_task` by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.record import row_at
from repro.obs.profile import cpu_clock, wall_clock
from repro.scan.codegen import compile_batch_matcher_from_source
from repro.scan.columnar import DEFAULT_BATCH_SIZE
from repro.scan.mmapstore import MmapDataset, MmapSplitRef, open_mmap_dataset


@dataclass(frozen=True)
class ScanTaskSpec:
    """The job-level half of a process scan task: what to match and emit.

    Built once per map batch by ``Mapper.scan_task_spec()``; everything
    here must pickle (the runtime verifies and falls back to in-process
    execution when a predicate's constant pool doesn't).
    """

    source: str
    """Generated batch-matcher source (:func:`repro.scan.codegen.batch_matcher_source`)."""

    namespace: dict
    """The matcher's constant pool (column names, literals)."""

    limit: int | None
    """Per-task match cap (Algorithm 1's k), or None for full scans."""

    columns: tuple[str, ...] | None
    """Output projection, or None to emit whole rows."""

    fixed_key: Any = None
    """Emit every output under this key (the sampling job's dummy key);
    None keys outputs by absolute row index instead (scan jobs)."""


@dataclass(frozen=True)
class ScanTask:
    """One packed map task as shipped to a worker process: the
    partitions one worker scans for a batch, and the spec they share."""

    refs: tuple[MmapSplitRef, ...]
    spec: ScanTaskSpec

    job_id: str | None = None
    """Telemetry routing key. Set only when a
    :class:`~repro.obs.hub.TelemetryHub` is live in the parent; workers
    stamp it on every :class:`WorkerDelta` so the hub can multiplex live
    progress across concurrent jobs. ``None`` (the default, and always
    the value when no hub is installed) keeps the worker on the exact
    single-call scan path."""


@dataclass(frozen=True)
class WorkerDelta:
    """One live progress checkpoint flushed mid-task by a worker.

    ``rows_scanned`` is **cumulative** for this (job, partition) task,
    never an increment — the telemetry channel is therefore idempotent:
    a lost, duplicated, or reordered flush can only delay the live view,
    not corrupt counts (the hub keeps max-so-far per partition)."""

    job_id: str
    partition: int
    rows_scanned: int
    """Rows scanned so far in this task (cumulative)."""

    hits: int
    """Matches found so far (cumulative)."""

    chunk_rows: int
    """Rows scanned by the chunk that triggered this flush."""

    wall_s: float
    """Wall seconds the triggering chunk took (chunk scan rate =
    ``chunk_rows / wall_s``)."""


@dataclass(frozen=True)
class ScanTaskResult:
    """What a worker sends back: indices and counters, never rows."""

    partition: int
    scanned: int
    """Rows actually read (the LIMIT-k early exit included) — feeds
    ``records_read`` and the Input Provider's progress statistics."""

    hits: list[int]
    """Partition-relative row indices of matches, ascending, capped at
    the limit."""

    wall_s: float
    """Worker-measured wall time charged to this partition: its own scan
    plus an equal share of the packed task's open and compile time, so
    the partitions' shares sum to the task's wall time. The parent feeds
    this to ``profile.scan.map_task`` so the phase taxonomy reconciles
    even though the work ran elsewhere."""

    cpu_s: float
    """The task's CPU time, shared out in proportion to ``wall_s``."""

    scan_wall_s: float
    """Wall time of just the scan loop (the ``ScanSpan.elapsed_s``
    analogue); always <= ``wall_s`` so phase totals keep bounding span
    totals."""

    deltas: tuple[tuple[int, float], ...] = ()
    """Piggybacked ``(rows_scanned_cumulative, wall_s_since_scan_start)``
    checkpoints, one per telemetry chunk — the fallback live-progress
    record when the delta queue could not be created (the hub folds
    these into its chunk-rate sketch at task completion). Empty when
    telemetry is off."""


#: Default telemetry chunk: large enough that the per-chunk matcher
#: re-entry cost vanishes, small enough that a long split flushes
#: progress several times before finishing.
TELEMETRY_CHUNK_ROWS = 65_536


class _WorkerTelemetry:
    """Per-worker-process telemetry conduit (installed by the pool
    initializer, read by :func:`run_scan_task`)."""

    __slots__ = ("queue", "chunk_rows")

    def __init__(self, queue, chunk_rows: int) -> None:
        self.queue = queue
        self.chunk_rows = max(1, int(chunk_rows))

    def flush(self, delta: WorkerDelta) -> None:
        """Best-effort: a telemetry flush must never fail the scan."""
        if self.queue is None:
            return
        try:
            self.queue.put_nowait(delta)
        except Exception:
            pass


_TELEMETRY: _WorkerTelemetry | None = None


def init_worker_telemetry(queue, chunk_rows: int = TELEMETRY_CHUNK_ROWS) -> None:
    """Install the telemetry conduit in a worker process.

    Passed as the pool's ``initializer`` (with the hub's delta queue in
    ``initargs`` — multiprocessing queues travel safely that way, via
    process inheritance, where a normal pickle would fail). Safe to call
    in the parent too (the inline-fallback path reuses it)."""
    global _TELEMETRY
    _TELEMETRY = _WorkerTelemetry(queue, chunk_rows)


def reset_worker_telemetry() -> None:
    """Remove an installed conduit (parent-side cleanup after fallback)."""
    global _TELEMETRY
    _TELEMETRY = None


def run_scan_task(task: ScanTask) -> list[ScanTaskResult]:
    """Execute one packed scan task inside a worker process.

    Compiles the matcher once and opens each dataset file once for the
    whole task (through the per-process mmap cache, so a worker maps a
    file once no matter how many tasks it runs), then scans each
    partition's row range with the spec's own ``limit``, chunk by chunk
    (:func:`_scan_partition`). Returns one result per ref, in
    ``task.refs`` order."""
    wall0 = wall_clock()
    cpu0 = cpu_clock()
    matcher = compile_batch_matcher_from_source(
        task.spec.source, dict(task.spec.namespace)
    )
    telemetry = _TELEMETRY if task.job_id is not None else None
    datasets: dict[str, MmapDataset] = {}
    scans = []
    scan_total = 0.0
    for ref in task.refs:
        dataset = datasets.get(ref.path)
        if dataset is None:
            dataset = datasets[ref.path] = open_mmap_dataset(ref.path)
        store = dataset.partition_store(ref.partition)
        hits: list[int] = []
        scan0 = wall_clock()
        scanned, deltas = _scan_partition(
            matcher, store, task, ref.partition, hits, telemetry, scan0
        )
        scan_wall = wall_clock() - scan0
        scan_total += scan_wall
        scans.append((ref.partition, scanned, hits, scan_wall, deltas))
    task_wall = wall_clock() - wall0
    task_cpu = max(0.0, cpu_clock() - cpu0)
    # Open and compile are paid once for the whole task: each partition
    # carries an equal share, so the shares sum to the task's wall time
    # and every wall_s still bounds its own scan_wall_s.
    share = max(0.0, task_wall - scan_total) / len(scans)
    results = []
    for partition, scanned, hits, scan_wall, deltas in scans:
        wall = scan_wall + share
        results.append(
            ScanTaskResult(
                partition=partition,
                scanned=scanned,
                hits=hits,
                wall_s=wall,
                cpu_s=task_cpu * wall / task_wall if task_wall > 0 else 0.0,
                scan_wall_s=scan_wall,
                deltas=deltas,
            )
        )
    return results


def _scan_partition(
    matcher, store, task: ScanTask, partition: int, hits: list[int],
    telemetry: _WorkerTelemetry | None, scan0: float,
) -> tuple[int, tuple[tuple[int, float], ...]]:
    """Scan one partition in chunks, flushing progress if telemetry is on.

    Chunks hold :data:`~repro.scan.columnar.DEFAULT_BATCH_SIZE` rows, as
    the serial batch loop does, so a string column decodes no more rows
    than the scan reaches; with telemetry (``task.job_id`` set and a
    conduit installed) they hold the conduit's ``chunk_rows`` and each is
    followed by a cumulative :class:`WorkerDelta`. Any chunking gives the
    same result as one call over the whole range: each chunk call appends
    the same ascending absolute indices, and the per-chunk scanned counts
    (full chunk size, or ``k-th-match-offset + 1`` on early exit) sum to
    exactly that call's return value.
    """
    limit = task.spec.limit
    num_rows = store.num_rows
    chunk = telemetry.chunk_rows if telemetry is not None else DEFAULT_BATCH_SIZE
    scanned = 0
    checkpoints: list[tuple[int, float]] = []
    position = 0
    while position < num_rows:
        end = min(position + chunk, num_rows)
        remaining = None if limit is None else limit - len(hits)
        chunk0 = wall_clock()
        sub = matcher(store.scan_columns(end), position, end, remaining, hits.append)
        scanned += sub
        if telemetry is not None:
            chunk_wall = wall_clock() - chunk0
            checkpoints.append((scanned, wall_clock() - scan0))
            telemetry.flush(
                WorkerDelta(
                    job_id=task.job_id,
                    partition=partition,
                    rows_scanned=scanned,
                    hits=len(hits),
                    chunk_rows=sub,
                    wall_s=chunk_wall,
                )
            )
        # limit=0 deliberately never breaks: the generated matcher's
        # early-exit check (``_n == _limit``) cannot fire for 0, so one
        # call over the whole range scans everything and chunks must too.
        if limit is not None and limit > 0 and len(hits) >= limit:
            break
        position = end
    return scanned, tuple(checkpoints)


def materialize_outputs(
    store, result: ScanTaskResult, spec: ScanTaskSpec
) -> list[tuple[Any, Any]]:
    """Turn a worker's hit indices into the mapper's output pairs.

    Runs in the parent over its own mmap view of the same file; row
    synthesis here is exactly what the serial batch loop does via
    ``ColumnBatch.row``, so output bytes match.
    """
    names = spec.columns if spec.columns is not None else store.names
    columns = store.columns
    if spec.fixed_key is not None:
        key = spec.fixed_key
        return [(key, row_at(names, columns, index)) for index in result.hits]
    return [(index, row_at(names, columns, index)) for index in result.hits]
