"""Human-readable views over a recorded trace (``repro trace/metrics``)."""

from __future__ import annotations

from typing import Iterable


def _one_line(event: dict) -> str:
    """Compact single-line summary of one trace event."""
    type_ = event["type"]
    time = event["time"]
    prefix = f"[{time:10.3f}] {type_:20s}"
    if type_ == "provider_evaluation":
        response = event["response"]
        policy = event.get("policy") or "-"
        progress = event.get("progress")
        done = f"{progress['splits_completed']}/{progress['splits_added']}" if progress else "-"
        cluster = event.get("cluster") or {}
        slots = f"{cluster.get('available_map_slots', '?')}/{cluster.get('total_map_slots', '?')}"
        return (
            f"{prefix} policy={policy} phase={event['phase']} done={done} "
            f"slots={slots} -> {response['kind']} splits={response['splits']}"
        )
    if type_ == "scan_span":
        # rows_per_sec is None when elapsed_s was 0; a legitimate 0.0
        # rate (zero rows over positive time) must still be shown.
        rps = event.get("rows_per_sec")
        rate = f" ({rps:,.0f} rows/s)" if rps is not None else ""
        return (
            f"{prefix} {event['task_id']} split={event['split_id']} "
            f"mode={event['mode']} rows={event['rows']} outputs={event['outputs']}{rate}"
        )
    if type_ == "metrics_snapshot":
        return f"{prefix} scope={event['scope']} ({len(event['metrics'])} metrics)"
    if type_ == "sweep_point":
        state = "cached" if event["cached"] else "computed"
        return f"{prefix} #{event['index']} {event['kind']} [{state}]"
    if type_ in ("sweep_started", "sweep_finished"):
        return f"{prefix} points={event['points']}"
    parts = [prefix]
    if event.get("task_id"):
        parts.append(str(event["task_id"]))
    detail = event.get("detail")
    if detail:
        parts.append(" ".join(f"{k}={v}" for k, v in detail.items()))
    return " ".join(parts)


def render_timeline(events: Iterable[dict], *, job_id: str | None = None) -> str:
    """Per-job timeline: events grouped by job, ordered by (time, seq).

    Events without a ``job_id`` (sweep progress, run-scoped snapshots)
    are grouped under a ``(run)`` section at the top.
    """
    by_job: dict[str, list[dict]] = {}
    for event in events:
        owner = event.get("job_id") or "(run)"
        by_job.setdefault(owner, []).append(event)
    if job_id is not None:
        by_job = {job_id: by_job.get(job_id, [])}

    lines: list[str] = []
    # "(run)" first, then jobs in first-appearance order (dict preserves it).
    ordered = sorted(by_job, key=lambda j: (j != "(run)",))
    for owner in ordered:
        job_events = sorted(by_job[owner], key=lambda e: (e["time"], e["seq"]))
        lines.append(f"== {owner} ({len(job_events)} events) ==")
        lines.extend(_one_line(event) for event in job_events)
        lines.append("")
    if lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def _format_value(entry: dict) -> str:
    value = entry["value"]
    if entry["kind"] == "histogram":
        if not value["count"]:
            return "count=0"
        text = (
            f"count={value['count']} mean={value['mean']:.6g} "
            f"min={value['min']:.6g} max={value['max']:.6g}"
        )
        # Quantiles appear in snapshots from the log-bucket histogram;
        # .get() keeps pre-quantile traces renderable.
        quantiles = " ".join(
            f"{key}={value[key]:.6g}"
            for key in ("p50", "p95", "p99")
            if value.get(key) is not None
        )
        return f"{text} {quantiles}" if quantiles else text
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_metrics(events: Iterable[dict]) -> str:
    """Tables from every ``metrics_snapshot`` event in the trace."""
    snapshots = [e for e in events if e["type"] == "metrics_snapshot"]
    if not snapshots:
        return "no metrics_snapshot events in trace"
    blocks: list[str] = []
    for event in snapshots:
        scope = event["scope"]
        owner = event.get("job_id")
        title = f"{scope}" + (f" [{owner}]" if owner else "")
        lines = [f"== {title} (t={event['time']:.3f}) =="]
        metrics = event["metrics"]
        if not metrics:
            lines.append("  (empty)")
        else:
            width = max(len(name) for name in metrics)
            for name in sorted(metrics):
                entry = metrics[name]
                lines.append(
                    f"  {name:<{width}}  {entry['kind']:<9}  {_format_value(entry)}"
                )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Live-telemetry rendering primitives (repro top)
# ---------------------------------------------------------------------------
SPARK_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], *, width: int = 24) -> str:
    """A unicode sparkline of ``values``, downsampled to ``width`` cells.

    Values may legitimately include 0.0 (an idle second in a rate
    series), so every presence check here is ``is not None`` / emptiness,
    never truthiness. A flat series renders at the lowest tick; an empty
    one renders as spaces.
    """
    series = [float(v) for v in values]
    if not series:
        return " " * width
    if len(series) > width:
        # Bucket-average down to width cells, keeping the newest points
        # rightmost (live series grow at the right edge).
        buckets: list[float] = []
        per = len(series) / width
        for index in range(width):
            lo = int(index * per)
            hi = max(lo + 1, int((index + 1) * per))
            chunk = series[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        series = buckets
    low = min(series)
    high = max(series)
    span = high - low
    if span <= 0:
        line = SPARK_TICKS[0] * len(series)
    else:
        line = "".join(
            SPARK_TICKS[
                min(len(SPARK_TICKS) - 1, int((v - low) / span * len(SPARK_TICKS)))
            ]
            for v in series
        )
    return line.rjust(width)


def progress_bar(done: int | float, total: int | float | None, *, width: int = 20) -> str:
    """``[#####.....] 50%`` — tolerant of unknown totals (renders ``?``)."""
    if total is None or total <= 0:
        return f"[{'?' * width}]   ?%"
    fraction = min(1.0, max(0.0, done / total))
    filled = int(round(fraction * width))
    return f"[{'#' * filled}{'.' * (width - filled)}] {fraction * 100:3.0f}%"


def format_duration(seconds: float | None) -> str:
    """Compact human duration; ``-`` for None, exact 0 included."""
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60:.1f}m"


def percentile_row(stats: dict | None) -> str:
    """``p50/p95/p99`` cell text from a quantile dict (sketch or
    histogram snapshot). None entries (empty sketch) render as ``-``:
    a genuine 0.0 quantile must still print as a number."""
    if not stats or not stats.get("count"):
        return "-"
    cells = [
        format_duration(stats[key]) if stats.get(key) is not None else "-"
        for key in ("p50", "p95", "p99")
    ]
    return "/".join(cells)
