"""Process map workers for the shared-memory multiprocess scan.

The :class:`~repro.engine.runtime.LocalRunner`'s ``map_executor="process"``
mode keeps ``map_workers`` forked processes (:class:`ScanWorkers`), each
serving one duplex pipe from :func:`serve`. Each map batch is dealt into
one packed :class:`ScanTask` per worker — the dataset file paths and file
ranges of that worker's splits, plus the compiled predicate's generated
source once — never pickled rows. On each pipe a batch is one exchange,
in this order:

1. the parent sends the pickled task;
2. if the task carries a job id (the parent runner's trace recorder has
   a listener), the worker sends a cumulative :class:`WorkerDelta` after
   every scan chunk, which the parent publishes to the listeners, so
   they see progress while the task runs;
3. the worker sends its results, one :class:`ScanTaskResult` per
   partition, or the formatted traceback (a ``str``) if the task raised.

A task's deltas therefore always arrive before its results. The worker
re-``mmap``s the file (the OS shares the page-cache pages with every
other worker and the parent), takes the batch matcher from its own
matcher cache, compiling it only the first time it meets that source and
constant pool, scans each partition in chunks, as the in-process scan
does (so a string column that a worker's later tasks scan again is
decoded once per worker and partition), and returns only match indices
and counters. The matcher's numeric conjuncts run in the worker too: the
shipped namespace names :func:`repro.scan.codegen.scan_kernel` by module
reference, so the worker evaluates them with numpy over its own mapping.
The scan is the in-process one (:func:`repro.scan.engine.scan_partition`),
and the parent builds each split's outputs from the hits with the
mapper's own ``outputs`` (:func:`materialize_outputs`), so job output is
byte-identical to serial execution:

* **Rows & order** — hits come back in ascending row order, exactly the
  order the in-process scan appends matches.
* **LIMIT-k accounting** — the generated matcher returns ``index of the
  k-th match + 1`` on early exit, a quantity independent of chunking
  (the chunking tests pin this), so telemetry-sized chunks yield the
  same ``records_read`` as the in-process scan's. The limit applies per
  partition, never across the partitions of a packed task.

Every message is a plain pickle, so a task must pickle to ship; the
runtime runs a batch whose task does not pickle inline instead.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
import weakref
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import wait
from time import perf_counter as wall_clock
from typing import Any, Callable

from repro.scan.codegen import BatchMatcher, compile_batch_matcher_from_source
from repro.scan.engine import scan_partition
from repro.scan.mmapstore import MmapDataset, MmapSplitRef, open_mmap_dataset

#: Default telemetry chunk: large enough that the per-chunk matcher
#: re-entry cost vanishes, small enough that a long split flushes
#: progress several times before finishing.
TELEMETRY_CHUNK_ROWS = 65_536


@dataclass(frozen=True)
class ScanTaskSpec:
    """The job-level half of a process scan task: what a worker matches.

    Built once per map batch by ``Mapper.scan_task_spec()``; everything
    here must pickle (the runtime falls back to in-process execution
    when a predicate's constant pool doesn't). What a match emits is
    the parent's business (:func:`materialize_outputs`).
    """

    source: str
    """Generated batch-matcher source (:func:`repro.scan.codegen.batch_matcher_source`)."""

    namespace: dict
    """The matcher's constant pool (column names, literals)."""

    limit: int | None
    """Per-task match cap (Algorithm 1's k), or None for full scans."""


@dataclass(frozen=True)
class ScanTask:
    """One packed map task as shipped to a worker process: the
    partitions one worker scans for a batch, and the spec they share."""

    refs: tuple[MmapSplitRef, ...]
    spec: ScanTaskSpec

    job_id: str | None = None
    """Telemetry routing key. Set only when the parent runner's trace
    recorder has a listener; the worker then scans in ``chunk_rows``
    chunks and sends a :class:`WorkerDelta` stamped with it after each,
    so listeners such as the telemetry hub can multiplex live progress
    across concurrent jobs. ``None`` (the default) keeps the worker on
    the in-process scan's chunks, sending nothing but its results."""

    chunk_rows: int = TELEMETRY_CHUNK_ROWS
    """Rows per telemetry chunk; the runtime always sends
    :data:`TELEMETRY_CHUNK_ROWS`."""


@dataclass(frozen=True)
class WorkerDelta:
    """One live progress checkpoint a worker sends mid-task, ahead of
    its task's results.

    ``rows_scanned`` is **cumulative** for this (job, partition) task,
    never an increment, so the hub's view is idempotent: a repeated or
    reordered delta can only delay the live view, not corrupt counts
    (the hub keeps max-so-far per partition)."""

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
    plus an equal share of the packed task's open and matcher lookup
    time, so the partitions' shares sum to the task's wall time. Read
    by the query benchmark's tracer as the worker's task time."""

    scan_wall_s: float
    """Wall time of just the scan loop, which becomes the split's
    ``ScanSpan.elapsed_s``; always <= ``wall_s``."""


#: This process's compiled matchers, keyed by generated source *and*
#: pickled constant pool: one source serves both ``l_quantity = 7`` and
#: ``l_quantity = 51``, and the pickle tells ``7`` from ``7.0``. Cleared
#: when full, as the codegen caches are.
_MATCHERS: dict[tuple[str, bytes], BatchMatcher] = {}
MATCHER_CACHE_SIZE = 512


def _matcher_for(spec: ScanTaskSpec) -> BatchMatcher:
    """The spec's batch matcher, compiled on this process's first sight."""
    key = (spec.source, pickle.dumps(spec.namespace, pickle.HIGHEST_PROTOCOL))
    matcher = _MATCHERS.get(key)
    if matcher is None:
        if len(_MATCHERS) >= MATCHER_CACHE_SIZE:
            _MATCHERS.clear()
        # A copy: compiling executes into the namespace, and the spec's
        # own must stay as it arrived.
        matcher = compile_batch_matcher_from_source(spec.source, dict(spec.namespace))
        _MATCHERS[key] = matcher
    return matcher


def run_scan_task(
    task: ScanTask, flush: Callable[[WorkerDelta], None] | None = None
) -> list[ScanTaskResult]:
    """Execute one packed scan task, as a worker process does.

    Takes the matcher from this process's cache and opens each dataset
    file once for the whole task (through the per-process mmap cache, so
    a worker maps a file once no matter how many tasks it runs), then
    scans each partition with the spec's own ``limit`` in the shared
    scan loop (:func:`~repro.scan.engine.scan_partition`). When the task
    carries a job id, the loop runs in the task's ``chunk_rows`` chunks
    and ``flush`` receives a cumulative :class:`WorkerDelta` after every
    chunk. Returns one result per ref, in ``task.refs`` order."""
    wall0 = wall_clock()
    matcher = _matcher_for(task.spec)
    if task.job_id is None:
        flush = None
    chunk = max(1, task.chunk_rows) if flush is not None else None
    datasets: dict[str, MmapDataset] = {}
    scans = []
    scan_total = 0.0
    for ref in task.refs:
        dataset = datasets.get(ref.path)
        if dataset is None:
            dataset = datasets[ref.path] = open_mmap_dataset(ref.path)
        store = dataset.partition_store(ref.partition)
        hits: list[int] = []
        on_chunk = None
        if flush is not None:
            on_chunk = partial(_send_delta, flush, task.job_id, ref.partition, hits)
        scan0 = wall_clock()
        scanned = scan_partition(
            matcher, store, task.spec.limit, hits, chunk=chunk, on_chunk=on_chunk
        )
        scan_wall = wall_clock() - scan0
        scan_total += scan_wall
        scans.append((ref.partition, scanned, hits, scan_wall))
    task_wall = wall_clock() - wall0
    # Open and matcher lookup are paid once for the whole task: each
    # partition carries an equal share, so the shares sum to the task's
    # wall time and every wall_s still bounds its own scan_wall_s.
    share = max(0.0, task_wall - scan_total) / len(scans)
    results = []
    for partition, scanned, hits, scan_wall in scans:
        results.append(
            ScanTaskResult(
                partition=partition,
                scanned=scanned,
                hits=hits,
                wall_s=scan_wall + share,
                scan_wall_s=scan_wall,
            )
        )
    return results


def _send_delta(flush, job_id, partition, hits, scanned, rows, wall_s) -> None:
    """The scan loop's ``on_chunk`` under telemetry: flush a cumulative
    :class:`WorkerDelta` after each chunk."""
    flush(WorkerDelta(job_id, partition, scanned, len(hits), rows, wall_s))


def serve(conn, inherited=()) -> None:
    """A map worker's loop: answer each task on ``conn`` until it closes.

    Per task it sends the task's deltas (if it carries a job id), then
    its results, or the formatted traceback if the task raised: the
    worker stays up, and the parent reruns the batch in process.
    ``inherited`` holds the parent's ends of the workers' pipes, which a
    forked worker holds copies of; closing them lets each worker see
    end-of-file once the parent closes or dies. A failure outside a task
    ends the process, which the parent sees as a broken pipe."""
    for parent_end in inherited:
        parent_end.close()

    def send(message) -> None:
        conn.send_bytes(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))

    while True:
        try:
            payload = conn.recv_bytes()
        except EOFError:
            return
        try:
            results = run_scan_task(pickle.loads(payload), send)
        except Exception:
            results = traceback.format_exc()
        send(results)


class ScanWorkers:
    """``count`` forked map workers, each serving one duplex pipe.

    Forked where the platform allows it: a worker inherits the imported
    modules and the parent's open mmap datasets, so a task costs one
    pickle and one pipe round trip each way, never interpreter start-up.
    Workers are stopped by :meth:`close`, or when this object is
    collected or the interpreter exits.
    """

    def __init__(self, count: int) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            ctx = multiprocessing.get_context()
        self._conns: list = []
        self._procs: list = []
        self._close = weakref.finalize(
            self, _stop, self._conns, self._procs, os.getpid()
        )
        for index in range(count):
            conn, child = ctx.Pipe()
            self._conns.append(conn)
            proc = ctx.Process(
                target=serve, args=(child, tuple(self._conns)),
                name=f"repro-map-worker-{index}", daemon=True,
            )
            proc.start()
            child.close()
            self._procs.append(proc)

    def run(
        self, payloads: list[bytes], on_delta: Callable[[WorkerDelta], None] | None
    ) -> list[list[ScanTaskResult] | str] | None:
        """Send payload *i* (a pickled :class:`ScanTask`) to worker *i*
        and return each worker's reply, in payload order, passing every
        :class:`WorkerDelta` that arrives first to ``on_delta`` (None
        only for tasks without a job id, which send none). A reply is
        the task's results, or the formatted traceback (a ``str``) of
        the exception its task raised; the workers stay up either way.

        Returns None, with every worker stopped, when a pipe fails: a
        worker died, idle or mid-task. Any other exception stops the
        workers too, since their pipes may still hold this batch's
        messages, and propagates."""
        try:
            pending = {}
            for index, payload in enumerate(payloads):
                conn = self._conns[index]
                conn.send_bytes(payload)
                pending[conn] = index
            replies: list = [None] * len(payloads)
            while pending:
                for conn in wait(list(pending)):
                    message = pickle.loads(conn.recv_bytes())
                    if type(message) is WorkerDelta:
                        on_delta(message)
                    else:
                        replies[pending.pop(conn)] = message
            return replies
        except (OSError, EOFError):
            self.close()
            return None
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop every worker; a second call does nothing."""
        self._close()


def _stop(conns: list, procs: list, owner: int) -> None:
    # A forked child holds a copy of this object; only the process that
    # started the workers may stop them. SIGKILL, because a worker holds
    # nothing to clean up and inherited its parent's signal handlers.
    if os.getpid() != owner:
        return
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.kill()
    for proc in procs:
        proc.join()


def materialize_outputs(store, result: ScanTaskResult, mapper) -> list[tuple[Any, Any]]:
    """A shipped split's map outputs: ``mapper.outputs`` over the
    worker's hit indices, in the parent's own view of the same file, as
    the mapper's in-process scan builds them, so output bytes match. A
    sampling mapper's are row references: its reducer builds the rows."""
    return mapper.outputs(store, result.hits)
