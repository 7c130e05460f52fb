"""Per-layer spans from outside the program.

:class:`Tracer` installs timing wrappers around the public entry points
of ``repro``'s modules, each under the name its caller looks it up by
(``run_map_task`` is wrapped where ``repro.engine.runtime`` imported it,
not in ``repro.scan.engine``). Every wrapped call inside a request
records a span: name, start, end, parent and request id. A span's self
time is its duration minus its children's, tracked with a stack, so
``super()`` chains and nested calls count once. Per request, the self
times plus the root span's own time (the residual: session glue and
the client loop) sum to the request's wall time.

Nothing here reaches a worker process: the process pool is forked
before the wrappers go in, tasks ship by module reference, and worker
time is read from the ``ScanTaskResult`` the parent materializes.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter as clock
from typing import Iterable, Iterator

REQUEST = "request"
"""Root span of one request; its self time is the residual."""

LAYERS = (
    "hive.parse",
    "hive.compile",
    "dfs.open_splits",
    "core.provider_init",
    "core.provider_evaluate",
    "core.provider_observe",
    "scan.map_task",
    "scan.codegen",
    "scan.prune",
    "scan.materialize",
    "engine.runner_self",
    "engine.shuffle",
    "engine.reduce",
    "approx.estimator",
    "approx.finalize",
    "sim.kernel",
    "sim.scheduler",
    "sim.submit",
)
"""Span names; each reports ``<name>_ms``, its mean self time per request."""

NAMES = (REQUEST, *LAYERS)
_NAME_INDEX = {name: index for index, name in enumerate(NAMES)}

LAYER_METRICS = {
    **{f"{layer}_ms": ("ms", "lower") for layer in LAYERS},
    "core.evaluations": ("count", "lower"),
    "core.useful_split_frac": ("ratio", "higher"),
    "scan.map_tasks": ("count", "lower"),
    "scan.rows_per_s": ("rows/s", "higher"),
    "scan.codegen_calls": ("count", "lower"),
    "scan.rows_read_per_row_returned": ("ratio", "lower"),
    "scan.splits_pruned": ("count", "higher"),
    "scan.materialize_calls": ("count", "lower"),
    "scan.worker_task_ms": ("ms", "lower"),
    "scan.worker_scan_ms": ("ms", "lower"),
    "approx.splits_to_target": ("count", "lower"),
    "sim.events_per_query": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "data.build_s": ("s", "lower"),
    "scan.mmap_open_s": ("s", "lower"),
    "scan.file_bytes_per_row": ("B/row", "lower"),
    "trace.request_ms": ("ms", "lower"),
    "residual_ms": ("ms", "lower"),
    "residual_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
"""name -> (unit, which direction is better). Per-request counts and
times are means over the traced requests."""


# ---------------------------------------------------------------------------
# Hooks: counts read at the same boundaries the spans time
# ---------------------------------------------------------------------------
def _map_task(counts, args, kwargs):
    def done(context):
        counts["scan.rows"] += context.records_read

    return done


def _materialize(counts, args, kwargs):
    result = args[1]
    counts["scan.worker_task_s"] += result.wall_s
    counts["scan.worker_scan_s"] += result.scan_wall_s
    return None


def _observe(counts, args, kwargs):
    counts["core.useful_splits"] += kwargs.get("outputs", 0) > 0
    return None


def _kernel(counts, args, kwargs):
    sim = args[0]
    before = sim.events_processed

    def done(_result):
        counts["sim.events"] += sim.events_processed - before

    return done


def targets():
    """``(owner, attribute, span name, hook)`` for every wrapped entry point."""
    import repro.approx.job as approx_job
    import repro.core.sampling_job as sampling_job
    import repro.engine.runtime as runtime
    import repro.hive.session as hive_session
    import repro.scan.prune as prune
    from repro.approx.estimators import AggregateEstimator
    from repro.core.input_provider import default_providers
    from repro.dfs.dfs import DistributedFileSystem
    from repro.engine.jobclient import JobClient
    from repro.engine.mapreduce import Reducer
    from repro.engine.scheduler.base import TaskScheduler
    from repro.engine.scheduler.fair import FairScheduler
    from repro.engine.scheduler.fifo import FifoScheduler
    from repro.hive.compiler import QueryCompiler
    from repro.sim.simulator import Simulator

    found = [
        (hive_session, "parse_statement", "hive.parse", None),
        (QueryCompiler, "compile", "hive.compile", None),
        (DistributedFileSystem, "open_splits", "dfs.open_splits", None),
        (runtime, "run_map_task", "scan.map_task", _map_task),
        (runtime, "materialize_outputs", "scan.materialize", _materialize),
        (runtime.LocalRunner, "run", "engine.runner_self", None),
        (runtime, "group_outputs", "engine.shuffle", None),
        (Reducer, "run", "engine.reduce", None),
        (approx_job, "finalize_rows", "approx.finalize", None),
        (Simulator, "run", "sim.kernel", _kernel),
        (JobClient, "submit", "sim.submit", None),
    ]
    for module in (sampling_job, approx_job):
        for name in ("compile_row_matcher", "compile_batch_matcher", "batch_matcher_source"):
            found.append((module, name, "scan.codegen", None))
    for name in ("split_stats", "may_match", "estimate_matches"):
        found.append((prune, name, "scan.prune", None))
    for cls in (TaskScheduler, FifoScheduler, FairScheduler):
        found.append((cls, "choose_map_task", "sim.scheduler", None))
    for name, member in vars(AggregateEstimator).items():
        if inspect.isfunction(member) and not name.startswith("_"):
            found.append((AggregateEstimator, name, "approx.estimator", None))
    provider_methods = {
        "initialize": ("core.provider_init", None),
        "initial_input": ("core.provider_init", None),
        "evaluate": ("core.provider_evaluate", None),
        "observe_split": ("core.provider_observe", _observe),
    }
    registry = default_providers()
    classes = {
        base
        for name in registry.names()
        for base in type(registry.create(name)).__mro__
        if base is not object
    }
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for method, (span, hook) in provider_methods.items():
            found.append((cls, method, span, hook))
    # Wrap a name only where it is defined: an inherited method is
    # wrapped once, on the class that defines it.
    return [target for target in found if target[1] in vars(target[0])]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        # Spans are packed into two arrays (about 50 bytes each, not 250
        # as tuples): a traced run keeps hundreds of thousands of them.
        self._ints = array("q")
        """Per span: id, parent id, request, index into ``NAMES``."""
        self._times = array("d")
        """Per span: start, end, self seconds."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._request = -1
        self._next_id = 0

    # ------------------------------------------------------------------
    def begin(self, request: int) -> float:
        """Open a request's root span; returns its start time."""
        self._request = request
        frame = [self._next_id, REQUEST, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = clock()
        return frame[2]

    def end(self) -> float:
        """Close the root span; returns its end time."""
        end = clock()
        sid, name, start, children = self._stack.pop()
        own = end - start - children
        self.self_s[name] += own
        self._record(sid, -1, name, start, end, own)
        return end

    def _record(
        self, sid: int, parent: int, name: str, start: float, end: float, own: float
    ) -> None:
        self._ints.extend((sid, parent, self._request, _NAME_INDEX[name]))
        self._times.extend((start, end, own))

    def spans(self) -> Iterator[tuple]:
        """Every span, in the order it closed, as
        ``(id, parent id, request, name, start, end, self seconds)``."""
        ints, times = self._ints, self._times
        for i in range(len(times) // 3):
            sid, parent, request, name = ints[4 * i : 4 * i + 4]
            start, end, own = times[3 * i : 3 * i + 3]
            yield sid, parent, request, NAMES[name], start, end, own

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attribute, name, hook in targets():
                original = vars(owner)[attribute]
                setattr(owner, attribute, self._wrap(original, name, hook))
                originals.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def _wrap(self, original, name: str, hook):
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            parent = stack[-1]
            outermost = parent[1] != name
            finish = hook(self.counts, args, kwargs) if hook and outermost else None
            frame = [self._next_id, name, 0.0, 0.0]
            self._next_id += 1
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[3]
                parent[3] += duration
                self.self_s[name] += own
                if outermost:
                    self.inclusive_s[name] += duration
                    self.calls[name] += 1
                self._record(frame[0], parent[0], name, start, end, own)
            if finish is not None:
                finish(result)
            return result

        return traced


def reconcile(spans: Iterable[tuple]) -> dict[int, tuple[float, float]]:
    """Per request: (sum of self times, including the residual; wall)."""
    totals: dict[int, list[float]] = defaultdict(list)
    wall: dict[int, float] = {}
    for _sid, parent, request, _name, start, end, own in spans:
        totals[request].append(own)
        if parent == -1:
            wall[request] = end - start
    return {request: (math.fsum(totals[request]), wall[request]) for request in wall}


def layer_metrics(tracer: Tracer, outcomes: list) -> dict[str, float]:
    """Per-layer means over the traced requests (set-up metrics excluded)."""
    n = len(outcomes)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    wall = math.fsum(o.latency_s for o in outcomes)
    metrics = {f"{layer}_ms": self_s.get(layer, 0.0) / n * 1e3 for layer in LAYERS}
    splits_observed = calls.get("core.provider_observe", 0)
    map_s = tracer.inclusive_s.get("scan.map_task", 0.0)
    kernel_s = tracer.inclusive_s.get("sim.kernel", 0.0)
    returned = sum(o.returned for o in outcomes)
    approx = [o.splits for o in outcomes if o.approx]
    metrics.update(
        {
            "core.evaluations": calls.get("core.provider_evaluate", 0) / n,
            "core.useful_split_frac": (
                counts["core.useful_splits"] / splits_observed if splits_observed else 0.0
            ),
            "scan.map_tasks": calls.get("scan.map_task", 0) / n,
            "scan.rows_per_s": counts["scan.rows"] / map_s if map_s else 0.0,
            "scan.codegen_calls": calls.get("scan.codegen", 0) / n,
            "scan.rows_read_per_row_returned": (
                sum(o.records for o in outcomes) / returned if returned else 0.0
            ),
            "scan.splits_pruned": sum(o.pruned for o in outcomes) / n,
            "scan.materialize_calls": calls.get("scan.materialize", 0) / n,
            "scan.worker_task_ms": counts["scan.worker_task_s"] / n * 1e3,
            "scan.worker_scan_ms": counts["scan.worker_scan_s"] / n * 1e3,
            "approx.splits_to_target": sum(approx) / len(approx) if approx else 0.0,
            "sim.events_per_query": counts["sim.events"] / n,
            "sim.events_per_s": counts["sim.events"] / kernel_s if kernel_s else 0.0,
            "trace.request_ms": wall / n * 1e3,
            "residual_ms": self_s.get(REQUEST, 0.0) / n * 1e3,
            "residual_frac": self_s.get(REQUEST, 0.0) / wall,
        }
    )
    return metrics
