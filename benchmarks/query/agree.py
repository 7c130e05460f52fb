"""``agree``: do two sets of runs agree within the benchmark's bounds?

Set A is the baseline and set B the candidate. For each workload and
each end-to-end metric, B's median may be worse than A's by at most the
metric's bound from BENCHMARK.json (a share of A's median). A metric
whose own quartile spread, in either set, exceeds its bound is reported
``unresolved`` rather than unchanged, unless every B run beats every A
run. ``failed_frac``, kept among a record's extras, must not rise at
all.
"""

from __future__ import annotations

import json
import math
import statistics


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def _load(paths: list[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        if record["trace"]:
            raise SystemExit(f"{path}: a traced run; agree compares untraced runs")
        runs.setdefault(record["workload"], []).append(record)
    return runs


def _value(record: dict, name: str) -> float:
    metric = record["metrics"].get(name)
    return metric["value"] if metric is not None else record["extra"][name]


def _verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """(verdict, how much worse B's median is as a share of A's)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a)
    worse = worse / abs(med_a) if med_a else (0.0 if worse <= 0 else math.inf)
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better", worse
        return "unresolved", worse
    return ("worse" if worse > bound else "ok"), worse


def agree(a_paths: list[str], b_paths: list[str], benchmark: dict) -> int:
    """Print one row per workload and metric; 1 if any row is worse."""
    set_a, set_b = _load(a_paths), _load(b_paths)
    rows = [(m["name"], m["bound"], m["better"]) for m in benchmark["end_to_end"]]
    rows.append(("failed_frac", 0.0, "lower"))
    disagree = False
    print(f"{'workload':<14} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set_a.keys() | set_b.keys()):
        if workload not in set_a or workload not in set_b:
            print(f"{workload:<14} missing from set {'A' if workload not in set_a else 'B'}")
            disagree = True
            continue
        for name, bound, better in rows:
            a = [_value(r, name) for r in set_a[workload]]
            b = [_value(r, name) for r in set_b[workload]]
            verdict, worse = _verdict(a, b, bound, better)
            disagree |= verdict == "worse"
            print(f"{workload:<14} {name:<22} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse:>+9.2%} {bound:>6.2f}  {verdict}")
    return 1 if disagree else 0
