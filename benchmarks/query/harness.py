"""Drive a workload: set up, warm up, run a closed loop, check, measure.

One client thread sends each request only after the previous one
returned (a closed loop with zero think time). A request's latency runs
from its first statement to its last. Each answer is checked right
after its request, outside the timed window, and the checking time is
taken out of the measured phase, so throughput counts only the system's
work while the client does not hold every answer in memory.

Counts that the program decides (rows and splits read, interval
coverage, simulated response time, peak memory) are taken over the
first ``min_requests`` measured requests, which every run completes, so
they repeat for a seed. Wall-clock latencies and throughput use every
measured request.

The host's speed drifts by tens of percent over minutes, so every
end-to-end wall time is reported in reference-host units: multiplied by
``REF_LOOP_MS / r``, where ``r`` is the median time of a fixed
pure-Python loop sampled every ``REF_EVERY_S`` through the run (between
requests, outside their timed windows). The raw wall times stay in the
run record.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
import zlib
from dataclasses import dataclass
from itertools import islice
from time import perf_counter as clock
from typing import Iterable

from benchmarks.query.tracing import LAYER_METRICS, Tracer, layer_metrics

MIN_REQUESTS = 1000
"""Measured requests every run completes, so the reported (not gated)
p99 keeps ten samples beyond it; README.md says why it is not gated."""

WARMUP = 50
SETUPS = 3
COVERAGE_FLOOR = 0.85
"""A run whose intervals hold the exact answer less often than this, at
the nominal 95% confidence, is reported incorrect."""

REF_LOOP_MS = 3.5
"""The reference loop's time on the host the bounds were calibrated on."""
REF_EVERY_S = 0.25

E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "throughput_qps": ("req/s", "higher"),
    "rows_read_per_query": ("rows", "lower"),
    "splits_read_per_query": ("splits", "lower"),
    "ci_coverage": ("ratio", "higher"),
    "response_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
"""name -> (unit, which direction is better)."""


@dataclass
class Outcome:
    """One measured request, reduced to what the metrics need."""

    latency_s: float
    ok: bool
    digest: int = 0
    """CRC of the answer and the job's counts: equal digests mean the
    traced and untraced runs returned the same thing."""
    records: int = 0
    splits: int = 0
    pruned: int = 0
    returned: int = 0
    response_s: float = 0.0
    """Simulated response time; wall latency on the LocalRunner, which
    has no simulated clock."""
    intervals: int = 0
    covered: int = 0
    approx: bool = False


@dataclass
class Phase:
    outcomes: list[Outcome]
    wall_s: float
    """Measured-phase wall time, without checking and host sampling."""
    rss_mb: float
    """Peak resident memory once ``min_requests`` requests had run."""


class HostSpeed:
    """Times a fixed pure-Python loop now and then through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = clock()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        self.samples.append(clock() - start)

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Factor that turns this run's wall times into reference-host time."""
        return REF_LOOP_MS / self.ref_ms


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def warm_up(session, requests: Iterable) -> None:
    for request in requests:
        for statement in request.statements:
            session.execute(statement)


class Lease:
    """The session requests run on, opened afresh every
    ``workload.session_requests`` requests when the workload asks."""

    def __init__(self, workload, data, seed: int) -> None:
        self._open = lambda: workload.open_session(data, seed)
        self._every = workload.session_requests
        self.simulated = workload.simulated
        self.session, self.close = self._open()

    def renew_for(self, index: int) -> None:
        if self._every and index and index % self._every == 0:
            self.close()
            self.session, self.close = self._open()


def drive(
    lease: Lease,
    requests: Iterable,
    reference,
    *,
    seconds: float | None = None,
    count: int | None = None,
    min_requests: int = 0,
    tracer: Tracer | None = None,
    host: HostSpeed | None = None,
) -> Phase:
    """Run ``requests`` until ``seconds`` pass (and at least
    ``min_requests`` ran) or ``count`` requests ran."""
    outcomes: list[Outcome] = []
    paused = 0.0
    rss_mb = None
    start = next_sample = clock()
    deadline = None if seconds is None else start + seconds
    for index, request in enumerate(requests):
        renewing = clock()
        lease.renew_for(index)
        session = lease.session
        paused += clock() - renewing
        t0 = tracer.begin(index) if tracer else clock()
        try:
            for statement in request.statements:
                result = session.execute(statement)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        t1 = tracer.end() if tracer else clock()
        outcomes.append(_outcome(request, result, t1 - t0, reference, lease.simulated))
        if rss_mb is None and len(outcomes) >= min_requests:
            rss_mb = _peak_rss_mb()
        if host is not None and t1 >= next_sample:
            host.sample()
            next_sample = t1 + REF_EVERY_S
        paused += clock() - t1
        if count is not None and len(outcomes) >= count:
            break
        if deadline is not None and t1 >= deadline and len(outcomes) >= min_requests:
            break
    return Phase(outcomes, clock() - start - paused, rss_mb or _peak_rss_mb())


def _outcome(request, result, latency: float, reference, simulated: bool) -> Outcome:
    if isinstance(result, Exception):
        traceback.print_exception(result, file=sys.stderr)
        return Outcome(latency, ok=False)
    verdict = reference.check(request, result)
    if not verdict.ok:
        print(f"wrong answer to {request.statements[-1]!r}: {verdict.reason}", file=sys.stderr)
    job = result.job
    counts = (
        job.records_processed,
        job.splits_processed,
        job.splits_pruned,
        job.outputs_produced,
        job.response_time,
    )
    return Outcome(
        latency,
        ok=verdict.ok,
        digest=zlib.crc32(repr((result.rows, counts)).encode()),
        records=job.records_processed,
        splits=job.splits_processed,
        pruned=job.splits_pruned,
        returned=len(result.rows),
        response_s=job.response_time if simulated else latency,
        intervals=verdict.intervals,
        covered=verdict.covered,
        approx=request.aggregate is not None,
    )


def coverage(outcomes: list[Outcome]) -> float:
    """Share of stated intervals holding the exact answer (1 with none)."""
    intervals = sum(o.intervals for o in outcomes)
    return sum(o.covered for o in outcomes) / intervals if intervals else 1.0


def e2e_metrics(
    phase: Phase, setup_times: list[float], count_n: int, *, scale: float, simulated: bool
) -> dict[str, float]:
    """End-to-end metrics; wall times are multiplied by ``scale``."""
    outcomes = phase.outcomes
    latencies = [o.latency_s for o in outcomes]
    counted = outcomes[:count_n]
    # Simulated time repeats for a seed over the counted requests; wall
    # time is steadier over the whole phase.
    response_s = statistics.fmean(o.response_s for o in (counted if simulated else outcomes))
    return {
        "setup_s": statistics.median(setup_times) * scale,
        "latency_p50_ms": statistics.median(latencies) * 1e3 * scale,
        "throughput_qps": len(outcomes) / phase.wall_s / scale,
        "rows_read_per_query": statistics.fmean(o.records for o in counted),
        "splits_read_per_query": statistics.fmean(o.splits for o in counted),
        "ci_coverage": coverage(counted),
        "response_s": response_s if simulated else response_s * scale,
        "peak_rss_mb": phase.rss_mb,
    }


def _set_up(workload, seed: int, workdir: str, index: int, warmup: int):
    """Build the data, open a session and warm it up; time all of it."""
    start = clock()
    data = workload.build(seed, workdir, index)
    lease = Lease(workload, data, seed)
    try:
        warm_up(lease.session, islice(workload.requests(seed), warmup))
    except BaseException:
        lease.close()
        raise
    return data, lease, clock() - start


def run_workload(
    workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    min_requests: int = MIN_REQUESTS,
    warmup: int = WARMUP,
    setups: int = SETUPS,
) -> dict:
    """One benchmark run; returns its record (see README.md).

    Set-up (data build, file open, session, warm-up) runs ``setups``
    times and reports the median. The last set-up's session serves the
    measured phase. With ``trace``, the measured phase runs for half of
    ``seconds`` untraced, then a fresh session repeats the same warm-up
    and requests with the timing wrappers installed.
    """
    host = HostSpeed()
    setup_times, builds, opens = [], [], []
    for index in range(setups):
        host.sample()
        data, lease, elapsed = _set_up(workload, seed, workdir, index, warmup)
        host.sample()
        setup_times.append(elapsed)
        builds.append(data.build_s)
        opens.append(data.open_s)
        if index < setups - 1:
            lease.close()
    try:
        start = clock()
        reference = workload.reference(data)
        reference_s = clock() - start
        phase = drive(
            lease,
            islice(workload.requests(seed), warmup, None),
            reference,
            seconds=seconds / 2 if trace else seconds,
            min_requests=0 if trace else min_requests,
            host=host,
        )
    finally:
        lease.close()
    outcomes = phase.outcomes
    failed = sum(not o.ok for o in outcomes)
    count_n = min(min_requests, len(outcomes))
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and coverage(outcomes) >= COVERAGE_FLOOR,
        "attempted": len(outcomes),
        "failed": failed,
    }
    extra = {
        "failed_frac": failed / len(outcomes),
        "host.ref_loop_ms": host.ref_ms,
        "reference_s": reference_s,
        "counted_requests": count_n,
    }
    if not trace:
        raw = e2e_metrics(phase, setup_times, count_n, scale=1.0, simulated=workload.simulated)
        metrics = e2e_metrics(
            phase, setup_times, count_n, scale=host.scale, simulated=workload.simulated
        )
        extra["latency_p50_per_ref_loop"] = raw["latency_p50_ms"] / host.ref_ms
        p99_ms = statistics.quantiles([o.latency_s for o in outcomes], n=100)[98] * 1e3
        extra["latency_p99_ms"] = p99_ms * host.scale
        extra["wall.latency_p99_ms"] = p99_ms
        for name in ("setup_s", "latency_p50_ms", "throughput_qps"):
            extra[f"wall.{name}"] = raw[name]
        record["metrics"] = _with_units(metrics, E2E_METRICS)
        record["extra"] = extra
        return record

    tracer = Tracer()
    lease = Lease(workload, data, seed)
    try:
        # Warm the fresh session (and fork its pool) before wrapping, so
        # the traced requests see the state the untraced ones saw.
        warm_up(lease.session, islice(workload.requests(seed), warmup))
        with tracer.installed():
            traced = drive(
                lease,
                islice(workload.requests(seed), warmup, None),
                reference,
                count=len(outcomes),
                tracer=tracer,
            )
    finally:
        lease.close()
    if [o.digest for o in traced.outcomes] != [o.digest for o in outcomes]:
        print("traced answers differ from the untraced run", file=sys.stderr)
        record["correct"] = False
    metrics = layer_metrics(tracer, traced.outcomes)
    metrics["trace.overhead_frac"] = (
        math.fsum(o.latency_s for o in traced.outcomes)
        / math.fsum(o.latency_s for o in outcomes)
        - 1.0
    )
    metrics["data.build_s"] = statistics.median(builds)
    metrics["scan.mmap_open_s"] = statistics.median(opens)
    metrics["scan.file_bytes_per_row"] = data.bytes_per_row
    record["metrics"] = _with_units(metrics, LAYER_METRICS)
    record["extra"] = extra
    record["spans"] = tracer.spans()  # a generator: read it once
    return record


def _with_units(values: dict[str, float], definitions: dict) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in definitions.items()
    }
