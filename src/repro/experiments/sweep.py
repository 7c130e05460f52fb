"""Parallel experiment sweep engine with a content-addressed result cache.

Every figure of the evaluation is a grid of *independent* simulations —
Figure 5 alone is 5 scales × 3 skews × 5 policies — so regenerating
results serially wastes every core but one. This module expresses a grid
as self-contained, picklable :class:`SweepPoint` configs, fans them out
over a :class:`concurrent.futures.ProcessPoolExecutor`, and memoizes each
cell's result on disk keyed by the config *and* the code-relevant
constants (cost model, paper parameters), so a re-run only recomputes
cells whose inputs actually changed.

Determinism: each point builds its own cluster(s) from its own seeds and
(since the tie-break sequence counter is per-``Simulator``) its result is
independent of what else runs in the process. Serial (``jobs=1``) and
parallel (``jobs=N``) sweeps therefore produce byte-identical cells; the
test suite asserts this.

Usage::

    from repro.experiments import sweep
    points = sweep.figure5_points(scales=(5, 10), skews=(0,), seeds=(0,))
    results = sweep.run_sweep(points, jobs=8, cache=sweep.ResultCache())
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.cluster.costmodel import CostModel
from repro.errors import SweepError

#: Bump when the meaning of cached results changes (result dataclass
#: layout, simulation semantics) without any constant changing.
#: v2: JobResult grew metrics_snapshot; failure config became part of
#: every point's identity (it previously was not representable at all,
#: so any pre-v2 cell is implicitly "no failures" under stale keys).
#: v3: histogram snapshots (inside JobResult.metrics_snapshot) gained
#: log-bucket p50/p95/p99 quantiles; pre-v3 cached cells lack the keys.
CACHE_SCHEMA_VERSION = 3

DEFAULT_CACHE_DIR = ".repro_cache"

CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache directory to use absent an explicit ``--cache-dir``.

    Honors the ``REPRO_CACHE_DIR`` environment variable so CI and shared
    machines can redirect every sweep's cache without touching each
    invocation; falls back to :data:`DEFAULT_CACHE_DIR`.
    """
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


_MISS = object()


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One self-contained cell of an experiment grid.

    ``kind`` selects the runner (``figure4`` … ``figure8``); ``params``
    is a sorted tuple of ``(name, value)`` pairs holding only primitives
    and tuples, so a point is hashable, picklable, and has a stable
    ``repr`` to key the cache with.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, **params: Any) -> "SweepPoint":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"


def _run_figure4(params: dict[str, Any]) -> Any:
    from repro.experiments.skew_figure import run_figure4_point

    return run_figure4_point(**params)


def _run_figure5(params: dict[str, Any]) -> Any:
    from repro.experiments.single_user import run_single_user_cell

    return run_single_user_cell(**params)


def _run_figure6(params: dict[str, Any]) -> Any:
    from repro.experiments.multiuser import run_homogeneous_cell

    return run_homogeneous_cell(**params)


def _run_heterogeneous(params: dict[str, Any]) -> Any:
    from repro.experiments.heterogeneous import run_heterogeneous_cell

    return run_heterogeneous_cell(**params)


_RUNNERS: dict[str, Callable[[dict[str, Any]], Any]] = {
    "figure4": _run_figure4,
    "figure5": _run_figure5,
    "figure6": _run_figure6,
    "figure7": _run_heterogeneous,
    "figure8": _run_heterogeneous,
}


def run_sweep_point(point: SweepPoint) -> Any:
    """Execute one grid cell in the current process.

    ``--jobs N`` runs cells in worker processes, which a profiler
    started on the parent (``python -m cProfile``) does not see, so
    profile sweeps with ``--jobs 1``.
    """
    try:
        runner = _RUNNERS[point.kind]
    except KeyError:
        raise SweepError(f"unknown sweep point kind {point.kind!r}") from None
    return runner(point.as_dict())


# ---------------------------------------------------------------------------
# Grid builders (one per figure)
# ---------------------------------------------------------------------------
def figure4_points(*, scale: float = 5, seed: int = 0) -> list[SweepPoint]:
    return [SweepPoint.make("figure4", scale=scale, z=z, seed=seed) for z in (0, 1, 2)]


def figure5_points(
    *,
    scales: Sequence[float],
    skews: Sequence[int],
    policies: Sequence[str],
    seeds: Sequence[int],
    sample_size: int,
    failures=None,
) -> list[SweepPoint]:
    """``failures`` (a frozen :class:`repro.engine.failures.FailureConfig`)
    rides inside every point, so cells simulated under different failure
    parameters can never collide in the result cache."""
    return [
        SweepPoint.make(
            "figure5",
            scale=scale,
            z=z,
            policy=policy,
            seeds=tuple(seeds),
            sample_size=sample_size,
            failures=failures,
        )
        for z in skews
        for scale in scales
        for policy in policies
    ]


def figure6_points(
    *,
    skews: Sequence[int],
    policies: Sequence[str],
    seeds: Sequence[int],
    scale: float,
    num_users: int,
    warmup: float,
    measurement: float,
) -> list[SweepPoint]:
    return [
        SweepPoint.make(
            "figure6",
            policy=policy,
            z=z,
            seeds=tuple(seeds),
            scale=scale,
            num_users=num_users,
            warmup=warmup,
            measurement=measurement,
        )
        for z in skews
        for policy in policies
    ]


def heterogeneous_points(
    *,
    figure: str,
    scheduler: str,
    fractions: Sequence[float],
    policies: Sequence[str],
    seeds: Sequence[int],
    scale: float,
    num_users: int,
    warmup: float,
    measurement: float,
) -> list[SweepPoint]:
    if figure not in ("figure7", "figure8"):
        raise SweepError(f"heterogeneous figure must be figure7/figure8, got {figure!r}")
    return [
        SweepPoint.make(
            figure,
            policy=policy,
            sampling_fraction=fraction,
            scheduler=scheduler,
            seeds=tuple(seeds),
            scale=scale,
            num_users=num_users,
            warmup=warmup,
            measurement=measurement,
        )
        for fraction in fractions
        for policy in policies
    ]


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def code_fingerprint(cost_model: CostModel | None = None) -> str:
    """Hash of the code-relevant constants a cached cell depends on.

    A cell's simulated result is a pure function of its :class:`SweepPoint`
    plus the cost model and paper constants; hashing those alongside the
    point means editing any of them invalidates every stale cache entry
    without a manual version bump (``CACHE_SCHEMA_VERSION`` covers the
    rest: result-dataclass layout and simulation semantics).
    """
    from repro.engine.failures import DEFAULT_MAX_ATTEMPTS, FailureConfig
    from repro.experiments import setup

    model = cost_model if cost_model is not None else CostModel()
    parts = (
        f"schema={CACHE_SCHEMA_VERSION}",
        repr(model),
        repr(
            (
                setup.PAPER_POLICIES,
                setup.PAPER_SCALES,
                setup.PAPER_SKEWS,
                setup.PAPER_SAMPLE_SIZE,
                setup.PAPER_FRACTIONS,
                setup.PAPER_NUM_USERS,
            )
        ),
        # Failure semantics: the retry budget and the defaults a point's
        # ``failures=None`` resolves to. Changing either changes what a
        # cached cell means.
        f"max_attempts={DEFAULT_MAX_ATTEMPTS}",
        repr(FailureConfig()),
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:20]


class ResultCache:
    """Pickle-per-cell result store under ``.repro_cache/``.

    Entries are keyed by ``sha256(fingerprint + point)``; writes are
    atomic (tmp file + rename) so a killed sweep never leaves a torn
    entry behind.
    """

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_CACHE_DIR,
        *,
        fingerprint: str | None = None,
    ) -> None:
        self._root = Path(root)
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()

    @property
    def root(self) -> Path:
        return self._root

    def key(self, point: SweepPoint) -> str:
        payload = f"{self.fingerprint}\n{point.kind}\n{point.params!r}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def path(self, point: SweepPoint) -> Path:
        return self._root / f"{self.key(point)}.pkl"

    def get(self, point: SweepPoint) -> Any:
        """The cached result for ``point``, or the module-private miss
        sentinel (compare with :func:`is_hit`)."""
        path = self.path(point)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (FileNotFoundError, EOFError, pickle.UnpicklingError):
            return _MISS

    def put(self, point: SweepPoint, result: Any) -> None:
        self._root.mkdir(parents=True, exist_ok=True)
        path = self.path(point)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)

    @staticmethod
    def is_hit(value: Any) -> bool:
        return value is not _MISS


# ---------------------------------------------------------------------------
# The sweep runner
# ---------------------------------------------------------------------------
def resolve_jobs(jobs: int | None) -> int:
    """``None`` → all cores; anything below 1 is rejected."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise SweepError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def run_sweep(
    points: Iterable[SweepPoint],
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[SweepPoint, str], None] | None = None,
    trace=None,
) -> dict[SweepPoint, Any]:
    """Run every point and return ``{point: result}``.

    ``jobs=1`` (the default) runs each point in-process, in order —
    exactly today's serial path. ``jobs=N`` fans misses out over a
    process pool; results are keyed by point, so assembly order never
    depends on completion order. ``progress`` (if given) is called with
    ``(point, status)`` where status is ``"cached"`` or ``"ran"``.
    ``trace`` (a :class:`repro.obs.trace.TraceRecorder`) receives
    sweep_started / sweep_point / sweep_finished events; recording is
    pure read-side and never alters results.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    results: dict[SweepPoint, Any] = {}

    if trace is not None:
        trace.sweep_started(points=len(points), jobs=jobs)

    def note(point: SweepPoint, status: str) -> None:
        if trace is not None:
            trace.sweep_point(
                index=points.index(point),
                kind=point.kind,
                params=point.as_dict(),
                cached=status == "cached",
            )
        if progress is not None:
            progress(point, status)

    todo: list[SweepPoint] = []
    for point in points:
        if point in results or point in todo:
            continue
        if cache is not None:
            hit = cache.get(point)
            if ResultCache.is_hit(hit):
                results[point] = hit
                note(point, "cached")
                continue
        todo.append(point)

    if jobs <= 1 or len(todo) <= 1:
        for point in todo:
            results[point] = run_sweep_point(point)
            if cache is not None:
                cache.put(point, results[point])
            note(point, "ran")
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            futures = {point: pool.submit(run_sweep_point, point) for point in todo}
            for point, future in futures.items():
                results[point] = future.result()
                if cache is not None:
                    cache.put(point, results[point])
                note(point, "ran")

    if trace is not None:
        trace.sweep_finished(points=len(points))
    return {point: results[point] for point in points}
