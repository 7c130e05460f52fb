"""``repro top`` — a live terminal dashboard over the telemetry hub.

Connects to a process started with ``--metrics-port`` (any of
``repro sample/query/sweep``) and renders its hub snapshot in place:
one row per job with a progress bar, rows/s sparkline, grab-to-grant
percentiles and the accuracy-CI column, plus cluster slot utilization
and sweep progress up top.

The rendering is a pure function of a snapshot dict
(:func:`render_top`), so tests drive it with hub snapshots directly;
only :func:`fetch_snapshot`/:func:`run_top` touch the network. The wire
format is the exporter's ``/telemetry.json`` endpoint — the hub
snapshot, verbatim.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable, TextIO

from repro.errors import ReproError
from repro.obs.render import (
    format_duration,
    percentile_row,
    progress_bar,
    sparkline,
)

#: ANSI: clear screen + home. ``repro top`` redraws the whole frame.
CLEAR = "\x1b[2J\x1b[H"

STATE_GLYPHS = {"running": ">", "succeeded": "+", "killed": "x"}

#: Attempts before the first successful fetch: ``repro top`` is usually
#: started right after (or concurrently with) the producer, which needs
#: a moment to import and bind its exporter — don't lose that race.
CONNECT_ATTEMPTS = 5


class TopError(ReproError):
    """``repro top`` could not reach or parse the telemetry endpoint."""


def fetch_snapshot(url: str, *, timeout: float = 2.0) -> dict:
    """GET the hub snapshot from an exporter's ``/telemetry.json``."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise TopError(f"cannot reach telemetry endpoint {url}: {exc}") from exc
    try:
        snapshot = json.loads(payload)
    except ValueError as exc:
        raise TopError(f"telemetry endpoint {url} returned non-JSON") from exc
    if not isinstance(snapshot, dict):
        raise TopError(f"telemetry endpoint {url} returned {type(snapshot).__name__}")
    return snapshot


def _rates_from_points(points: list) -> list[float]:
    """Per-second rates from a cumulative ``[(t, value), ...]`` series.

    Zero-duration intervals are skipped, and a counter reset (value
    decreasing) reads as a zero rate, never a negative one.
    """
    rates: list[float] = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        delta = v1 - v0
        rates.append(delta / dt if delta > 0 else 0.0)
    return rates


def _job_row(job: dict, *, name_width: int) -> str:
    glyph = STATE_GLYPHS.get(job.get("state") or "", "?")
    name = (job.get("name") or job.get("job_id") or "?")[:name_width]
    # A sampling job's goal is its sample size, not the full dataset —
    # it succeeds after a fraction of the splits, which would render as
    # a misleading half-empty bar. Fall back to splits for scan jobs.
    sample_size = job.get("sample_size")
    if sample_size:
        done: float = min(job.get("outputs_total") or 0, sample_size)
        total = sample_size
    else:
        done = job.get("splits_completed") or 0
        total = job.get("total_splits")
    if job.get("state") == "succeeded":
        done, total = 1, 1
    bar = progress_bar(done, total, width=16)
    rows = job.get("rows_total") or 0
    points = job.get("rows_series") or []
    rates = _rates_from_points(points)
    spark = sparkline(rates, width=16)
    current = f"{rates[-1]:,.0f}/s" if rates else "-"
    grab = percentile_row(job.get("grab_to_grant"))
    ci = job.get("ci")
    if isinstance(ci, dict) and ci.get("half_width") is not None:
        ci_cell = f"±{ci['half_width']:.4g}"
        if ci.get("met"):
            ci_cell += " ok"
    else:
        ci_cell = "-"
    worker = job.get("worker") or {}
    live = worker.get("live_rows") or 0
    live_cell = f"+{live:,}" if live else ""
    return (
        f"{glyph} {name:<{name_width}} {bar}  "
        f"{rows:>12,} {live_cell:<8} {spark} {current:>10}  "
        f"{grab:>26}  {ci_cell}"
    )


def render_top(snapshot: dict, *, name_width: int = 18) -> str:
    """One full dashboard frame from a hub snapshot (pure function)."""
    lines: list[str] = []
    uptime = snapshot.get("uptime_s")
    events = snapshot.get("events_seen")
    header = "repro top"
    if uptime is not None:
        header += f" — up {format_duration(uptime)}"
    if events is not None:
        header += f", {events} events"
    lines.append(header)

    # Live alert banner. Older producers serve snapshots without an
    # "alerts" key at all — render nothing rather than guessing.
    alerts = snapshot.get("alerts")
    if alerts:
        for alert in alerts:
            lines.append(
                f"! ALERT [{alert.get('severity') or '?'}] "
                f"{alert.get('job_id') or '?'} "
                f"{alert.get('detector') or '?'}: {alert.get('message') or ''}"
            )

    slots = snapshot.get("slots") or {}
    utilization = slots.get("utilization")
    if utilization is not None:
        series = [v for _t, v in (slots.get("series") or [])]
        lines.append(
            f"slots: {slots.get('total')} total, "
            f"{slots.get('available')} free  "
            f"util {utilization * 100:5.1f}% {sparkline(series, width=24)}"
        )
    sweep = snapshot.get("sweep")
    if sweep:
        total = sweep.get("points")
        done = sweep.get("done") or 0
        cached = sweep.get("cached") or 0
        lines.append(
            f"sweep: {progress_bar(done, total)}  "
            f"{done}/{total if total is not None else '?'} points"
            f" ({cached} cached)"
        )

    jobs = snapshot.get("jobs") or {}
    lines.append("")
    lines.append(
        f"  {'job':<{name_width}} {'progress':<22}  "
        f"{'rows':>12} {'live':<8} {'rows/s':<16} {'now':>10}  "
        f"{'grab→grant p50/p95/p99':>26}  ci"
    )
    if not jobs:
        lines.append("  (no jobs yet)")
    for job in jobs.values():
        lines.append(_job_row(job, name_width=name_width))
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    *,
    interval: float = 1.0,
    iterations: int | None = None,
    out: TextIO,
    clear: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The ``repro top`` loop: fetch, render, redraw until interrupted.

    ``iterations`` bounds the loop (None runs until Ctrl-C or the
    endpoint goes away after having been seen once). Returns an exit
    code. Tests pass ``iterations=1, clear=False`` and a no-op sleep.
    """
    seen_once = False
    failures = 0
    count = 0
    while iterations is None or count < iterations:
        try:
            snapshot = fetch_snapshot(url)
        except TopError as exc:
            if seen_once:
                # The producer exited; that's a clean end of the run.
                out.write("telemetry endpoint closed; exiting\n")
                return 0
            failures += 1
            if failures >= CONNECT_ATTEMPTS:
                out.write(f"{exc}\n")
                return 1
            # The producer may still be starting up; retry briefly.
            try:
                sleep(min(interval, 0.5))
            except KeyboardInterrupt:
                return 0
            continue
        seen_once = True
        frame = render_top(snapshot)
        if clear:
            out.write(CLEAR)
        out.write(frame)
        out.flush()
        count += 1
        if iterations is None or count < iterations:
            try:
                sleep(interval)
            except KeyboardInterrupt:
                return 0
    return 0
