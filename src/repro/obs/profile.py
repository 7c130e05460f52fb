"""Phase-scoped profiler over the system's real hot paths.

The trace layer answers *what happened*; this module answers *where the
wall time went*. A :class:`PhaseProfiler` hangs named spans off the hot
paths that matter for the paper's pipeline — the simulator kernel loop,
JobTracker dispatch, Input Provider evaluations, the scan engine's map
tasks, the shuffle, and sweep workers — recording wall *and* CPU time
per phase into a :class:`~repro.obs.metrics.MetricsRegistry`, with
opt-in :mod:`cProfile` capture per phase exported as both ``pstats``
dumps and flamegraph-collapsed stack files.

Design constraints, same as the trace layer (DESIGN.md §9c):

* **Strictly read-side.** Installing a profiler consumes no randomness
  and changes no job output bytes; the parity tests assert it, exactly
  as they do for tracing.
* **Near-zero cost when off.** Hot paths consult the module-level
  :data:`ACTIVE` slot (one attribute read); :func:`profiled_span`
  returns a shared no-op span when no profiler is installed. Phases are
  coarse — per dispatch, per evaluation, per map task — never per row
  or per event.
* **Shared clock.** :data:`wall_clock` / :data:`cpu_clock` are the one
  pair of clocks for every span *and* for the scan engine's
  ``ScanSpan`` timings, so scan spans in a trace and profiler phases in
  a snapshot can be joined in ``repro report`` without clock skew.

Phase taxonomy (the span names every consumer can rely on):

=====================  ====================================================
``kernel.run``         one :meth:`repro.sim.simulator.Simulator.run` loop
``scheduler.dispatch`` one JobTracker dispatch pass (slot assignment)
``provider.evaluate``  one Input Provider invocation (initial or periodic)
``scan.map_task``      one map-task scan over a materialized split
``shuffle.group``      one shuffle grouping of map outputs for reduce
``sweep.point``        one sweep grid cell executed in-process
=====================  ====================================================

Registry naming: phase ``P`` records histograms ``profile.P.wall_s`` and
``profile.P.cpu_s`` (count doubles as the call count) and, only when a
span body raises, counter ``profile.P.errors`` — failed spans never
contribute partial timings.

Caveats: cProfile capture cannot nest, so when phases nest (a map task
inside a kernel run) only the outermost capturing span profiles — its
stacks include the inner phases. Parallel sweep workers are separate
processes and do not report back; profile sweeps with ``--jobs 1``.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import time as _time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs.metrics import MetricsRegistry

#: The shared profiler clocks. Everything in the repo that stamps a
#: wall-clock or CPU duration (profiler spans, scan ``ScanSpan``s, the
#: telemetry hub) reads these, never ``time.*`` directly, so durations
#: from different layers are directly comparable.
wall_clock = _time.perf_counter
cpu_clock = _time.process_time

#: Every profiler metric lives under this registry prefix.
PHASE_PREFIX = "profile."

#: Canonical phase names (see the module docstring for what each spans).
PHASE_KERNEL = "kernel.run"
PHASE_DISPATCH = "scheduler.dispatch"
PHASE_EVALUATE = "provider.evaluate"
PHASE_SCAN = "scan.map_task"
PHASE_SHUFFLE = "shuffle.group"
PHASE_SWEEP_POINT = "sweep.point"

KNOWN_PHASES = (
    PHASE_KERNEL,
    PHASE_DISPATCH,
    PHASE_EVALUATE,
    PHASE_SCAN,
    PHASE_SHUFFLE,
    PHASE_SWEEP_POINT,
)

#: The currently installed profiler, or None. Hot paths read this slot
#: directly (``profile.ACTIVE``); only :meth:`PhaseProfiler.install` /
#: :meth:`PhaseProfiler.uninstall` write it.
ACTIVE: "PhaseProfiler | None" = None


def active_profiler() -> "PhaseProfiler | None":
    """The installed profiler, if any."""
    return ACTIVE


class _NullSpan:
    """Shared no-op span handed out when no profiler is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def profiled_span(phase: str):
    """A span for ``phase`` on the active profiler, or the no-op span.

    The cheap hook for hot paths: one global read when profiling is off,
    a real recording span when it is on.
    """
    profiler = ACTIVE
    if profiler is None:
        return _NULL_SPAN
    return profiler.span(phase)


class _Span:
    """One timed entry into a phase. Fresh per entry, so phases can nest
    and (with locked recording) be entered from worker threads."""

    __slots__ = ("_profiler", "phase", "_wall0", "_cpu0", "_captured")

    def __init__(self, profiler: "PhaseProfiler", phase: str) -> None:
        self._profiler = profiler
        self.phase = phase
        self._captured = False

    def __enter__(self) -> "_Span":
        self._captured = self._profiler._enable_capture(self.phase)
        self._wall0 = wall_clock()
        self._cpu0 = cpu_clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = wall_clock() - self._wall0
        cpu = cpu_clock() - self._cpu0
        if self._captured:
            self._profiler._disable_capture(self.phase)
        self._profiler._record(self.phase, wall, cpu, error=exc_type is not None)
        return None


class PhaseProfiler:
    """Records named phase spans into a registry; optionally cProfiles them.

    Spans record wall + CPU seconds per phase (histograms, so count,
    totals and quantiles all ride along); a span whose body raises
    increments ``profile.<phase>.errors`` instead of polluting the
    timing histograms with a partial measurement. With ``capture=True``
    each phase additionally accumulates a :class:`cProfile.Profile`
    (outermost span only — cProfile cannot nest), exportable via
    :meth:`dump_pstats` and :meth:`write_collapsed`.

    Use as a context manager (``with PhaseProfiler() as prof:``) or via
    :meth:`install` / :meth:`uninstall` to make it the process-wide
    :data:`ACTIVE` profiler the hot paths report to.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        capture: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry(
            scope="profile"
        )
        self.capture = capture
        self._profiles: dict[str, cProfile.Profile] = {}
        self._lock = threading.Lock()
        self._capture_live = False
        self._previous: "PhaseProfiler | None" = None
        self._installed = False

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, phase: str) -> _Span:
        """A context manager timing one entry into ``phase``."""
        return _Span(self, phase)

    def record_external(self, phase: str, wall_s: float, cpu_s: float) -> None:
        """Record one externally measured entry into ``phase``.

        For work that runs where a span cannot reach this profiler —
        e.g. a map task scanned inside a worker process, whose wall/CPU
        durations come back with the task result. Keeps the phase
        taxonomy reconciling (one ``scan.map_task`` timing per scan,
        wherever the scan ran); both clocks must be durations from the
        shared :data:`wall_clock` / :data:`cpu_clock` pair.
        """
        self._record(phase, wall_s, max(0.0, cpu_s), error=False)

    def _record(self, phase: str, wall: float, cpu: float, *, error: bool) -> None:
        with self._lock:
            if error:
                self.registry.counter(f"{PHASE_PREFIX}{phase}.errors").inc()
            else:
                self.registry.histogram(f"{PHASE_PREFIX}{phase}.wall_s").observe(wall)
                self.registry.histogram(f"{PHASE_PREFIX}{phase}.cpu_s").observe(
                    max(0.0, cpu)
                )

    # ------------------------------------------------------------------
    # cProfile capture
    # ------------------------------------------------------------------
    def _enable_capture(self, phase: str) -> bool:
        """Try to start cProfile for this span; False when not capturing,
        or when another capture is already live (nested phases)."""
        if not self.capture:
            return False
        with self._lock:
            if self._capture_live:
                return False
            profile = self._profiles.get(phase)
            if profile is None:
                profile = cProfile.Profile()
                self._profiles[phase] = profile
            self._capture_live = True
        try:
            profile.enable()
        except Exception:  # another tool owns the C profiler hook
            with self._lock:
                self._capture_live = False
            return False
        return True

    def _disable_capture(self, phase: str) -> None:
        self._profiles[phase].disable()
        with self._lock:
            self._capture_live = False

    # ------------------------------------------------------------------
    # Installation (the module-global ACTIVE slot)
    # ------------------------------------------------------------------
    def install(self) -> "PhaseProfiler":
        """Make this the profiler hot paths report to; returns self."""
        global ACTIVE
        if self._installed:
            return self
        self._previous = ACTIVE
        ACTIVE = self
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Undo :meth:`install`, restoring whatever was active before."""
        global ACTIVE
        if not self._installed:
            return
        ACTIVE = self._previous
        self._previous = None
        self._installed = False

    @contextmanager
    def installed(self) -> Iterator["PhaseProfiler"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def __enter__(self) -> "PhaseProfiler":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def phase_totals(self) -> dict[str, dict[str, float]]:
        """``{phase: {"calls", "wall_s", "cpu_s", "errors"}}`` totals.

        Built from the registry's ``profile.``-prefixed snapshot, so it
        reconciles exactly with any exported ``metrics_snapshot``.
        """
        totals: dict[str, dict[str, float]] = {}
        for name, entry in self.registry.snapshot(prefix=PHASE_PREFIX).items():
            body = name[len(PHASE_PREFIX):]
            phase, _, metric = body.rpartition(".")
            if not phase:
                continue
            bucket = totals.setdefault(
                phase, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "errors": 0}
            )
            if metric == "wall_s":
                bucket["calls"] = entry["value"]["count"]
                bucket["wall_s"] = entry["value"]["total"]
            elif metric == "cpu_s":
                bucket["cpu_s"] = entry["value"]["total"]
            elif metric == "errors":
                bucket["errors"] = entry["value"]
        return totals

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def dump_pstats(self, directory: str | Path) -> list[Path]:
        """Write one ``<phase>.pstats`` file per captured phase.

        Files load with ``pstats.Stats(str(path))`` or ``snakeviz``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        for phase in sorted(self._profiles):
            path = directory / f"{phase}.pstats"
            self._profiles[phase].dump_stats(str(path))
            paths.append(path)
        return paths

    def write_collapsed(self, directory: str | Path) -> list[Path]:
        """Write one flamegraph-collapsed ``<phase>.collapsed`` file per
        captured phase (``flamegraph.pl <file> > flame.svg``)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        for phase in sorted(self._profiles):
            path = directory / f"{phase}.collapsed"
            lines = collapsed_stacks(self._profiles[phase], phase)
            path.write_text("\n".join(lines) + ("\n" if lines else ""))
            paths.append(path)
        return paths


# ----------------------------------------------------------------------
# Flamegraph-collapsed export
# ----------------------------------------------------------------------
def _frame(func: tuple) -> str:
    """Compact one-frame label for a pstats function key."""
    filename, _lineno, name = func
    if filename.startswith("~") or filename.startswith("<"):
        return name  # built-ins and exec'd code have no useful file
    return f"{Path(filename).name}:{name}"


def collapsed_stacks(profile: cProfile.Profile, root: str) -> list[str]:
    """Flamegraph-collapsed lines (``frames... count``) for one phase.

    cProfile keeps caller→callee pairs rather than full stacks, so each
    line is ``root;caller;function`` (or ``root;function`` for entry
    points) weighted by the function's own time attributed to that
    caller, in microseconds. That is exactly the input format
    ``flamegraph.pl`` and speedscope accept; sorted for determinism.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    weights: dict[str, int] = {}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        leaf = _frame(func)
        if callers:
            for caller, caller_stats in callers.items():
                # callers[caller] = (cc, nc, tt, ct): tt is this
                # function's own time credited to that caller.
                micros = round(caller_stats[2] * 1e6)
                if micros > 0:
                    key = f"{root};{_frame(caller)};{leaf}"
                    weights[key] = weights.get(key, 0) + micros
        else:
            micros = round(tt * 1e6)
            if micros > 0:
                key = f"{root};{leaf}"
                weights[key] = weights.get(key, 0) + micros
    return [f"{stack} {count}" for stack, count in sorted(weights.items())]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_profile(profiler: PhaseProfiler) -> str:
    """Per-phase summary table (wall/cpu totals, calls, share of wall)."""
    totals = profiler.phase_totals()
    if not totals:
        return "no profiled phases recorded"
    grand_wall = sum(t["wall_s"] for t in totals.values())
    header = (
        f"{'phase':<20} {'calls':>8} {'wall s':>10} {'cpu s':>10} "
        f"{'mean ms':>9} {'% wall':>7}"
    )
    lines = [header, "-" * len(header)]
    for phase in sorted(totals, key=lambda p: -totals[p]["wall_s"]):
        t = totals[phase]
        calls = int(t["calls"])
        mean_ms = (t["wall_s"] / calls * 1e3) if calls else 0.0
        share = (t["wall_s"] / grand_wall * 100.0) if grand_wall > 0 else 0.0
        suffix = f"  ({int(t['errors'])} errors)" if t["errors"] else ""
        lines.append(
            f"{phase:<20} {calls:>8} {t['wall_s']:>10.4f} {t['cpu_s']:>10.4f} "
            f"{mean_ms:>9.3f} {share:>6.1f}%{suffix}"
        )
    return "\n".join(lines)
