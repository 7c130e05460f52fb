"""Tests of the query benchmark itself, at small sizes.

Run with ``python -m pytest benchmarks/query``. Each test drives the
workload functions directly with small tables and short phases; the
command line has no size flag.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import islice

import pytest

from benchmarks.query import ROOT
from benchmarks.query.agree import agree
from benchmarks.query.harness import E2E_METRICS, Lease, drive, run_workload, warm_up
from benchmarks.query.tracing import LAYER_METRICS, LAYERS, Tracer, reconcile, targets
from benchmarks.query.workloads import COMMON, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("rows_read_per_query", "splits_read_per_query", "ci_coverage")


def small(name: str):
    workload = WORKLOADS[name]
    if workload.simulated:
        return replace(workload, scales=(5,), ks=(1000,))
    return replace(workload, rows=4000, partitions=8 if name == "scan_parallel" else 16)


def run(name: str, workdir, *, trace: bool = False, seed: int = 0) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    return run_workload(
        small(name), seed=seed, seconds=0.3, trace=trace, workdir=str(workdir),
        min_requests=20, warmup=5, setups=1,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One small traced run per workload, shared by the tests below."""
    return {
        name: run(name, tmp_path_factory.mktemp(name), trace=True) for name in WORKLOADS
    }


def test_metric_names_and_units_match_benchmark_json(tmp_path, traced):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name, workload in WORKLOADS.items():
        why = next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == name)
        assert why == workload.why
    for section, defined in (("end_to_end", E2E_METRICS), ("per_layer", LAYER_METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]} == defined
    record = run("limit_sample", tmp_path)
    assert {n: m["unit"] for n, m in record["metrics"].items()} == {
        n: unit for n, (unit, _better) in E2E_METRICS.items()
    }
    assert {n: m["unit"] for n, m in traced["limit_sample"]["metrics"].items()} == {
        n: unit for n, (unit, _better) in LAYER_METRICS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_request_list(name):
    workload = WORKLOADS[name]
    first = list(islice(workload.requests(0), 200))
    assert first == list(islice(workload.requests(0), 200))
    assert first != list(islice(workload.requests(1), 200))


@pytest.mark.parametrize("name", ["limit_sample", "approx_agg", "sim_sample"])
def test_same_seed_repeats_count_metrics(tmp_path, name):
    a = run(name, tmp_path / "a")
    b = run(name, tmp_path / "b")
    assert a["correct"] and b["correct"]
    metrics = COUNT_METRICS + (("response_s",) if WORKLOADS[name].simulated else ())
    for metric in metrics:
        assert a["metrics"][metric] == b["metrics"][metric]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reconciles_to_wall_time(traced, name):
    record = traced[name]
    assert record["correct"]
    per_request = reconcile(record["spans"])
    assert len(per_request) == record["attempted"]
    for own, wall in per_request.values():
        assert abs(own - wall) <= 1e-6
    assert record["metrics"]["residual_frac"]["value"] <= 0.05


def test_traced_counts_equal_untraced_and_wrappers_are_restored(tmp_path):
    before = [(owner, name, vars(owner)[name]) for owner, name, _span, _hook in targets()]
    workload = small("approx_agg")
    data = workload.build(0, str(tmp_path), 0)
    reference = workload.reference(data)
    phases = []
    for tracer in (None, Tracer()):
        lease = Lease(workload, data, 0)
        warm_up(lease.session, islice(workload.requests(0), 5))
        requests = islice(workload.requests(0), 5, None)
        if tracer is None:
            phases.append(drive(lease, requests, reference, count=30))
        else:
            with tracer.installed():
                phases.append(drive(lease, requests, reference, count=30, tracer=tracer))
        lease.close()
    untraced, traced_phase = ([(o.digest, o.records, o.splits) for o in p.outcomes] for p in phases)
    assert traced_phase == untraced
    assert tracer.calls["approx.estimator"] > 0
    for owner, name, original in before:
        assert vars(owner)[name] is original


def _layer(record: dict, metric: str) -> float:
    return record["metrics"][metric]["value"]


def test_traced_breakdown_matches_the_workload_design(traced):
    sample = traced["limit_sample"]
    shares = {layer: _layer(sample, f"{layer}_ms") for layer in LAYERS}
    assert max(shares, key=shares.get) == "scan.map_task"
    for name, record in traced.items():
        assert (_layer(record, "scan.prune_ms") > 0) == (name == "limit_pruned")
        approx = [_layer(record, m) for m in LAYER_METRICS if m.startswith("approx.")]
        assert all(v > 0 for v in approx) == (name == "approx_agg")
        assert any(v > 0 for v in approx) == (name == "approx_agg")
        assert (_layer(record, "scan.materialize_calls") > 0) == (name == "scan_parallel")
        sim = [_layer(record, m) for m in LAYER_METRICS if m.startswith("sim.")]
        assert all(v > 0 for v in sim) == (name == "sim_sample")
        assert any(v > 0 for v in sim) == (name == "sim_sample")
    # A silent fall-back to in-process map tasks would show up here.
    assert _layer(traced["scan_parallel"], "scan.map_tasks") == 0


def _answer(workload, tmp_path, pick):
    data = workload.build(0, str(tmp_path), 0)
    reference = workload.reference(data)
    session, close = workload.open_session(data, 0)
    request = next(r for r in workload.requests(0) if pick(r))
    for statement in request.statements:
        result = session.execute(statement)
    close()
    assert reference.check(request, result).ok
    return reference, request, result


def test_checker_flags_corrupted_limit_answers(tmp_path):
    reference, request, result = _answer(
        small("limit_sample"), tmp_path, lambda r: r.k == 10 and r.pred is COMMON[0]
    )
    rows = result.rows
    column = request.pred.columns[0]
    changed = [dict(rows[0], **{column: -1})] + rows[1:]
    repeated = rows[:-1] + [dict(rows[0])]
    for corrupt in (changed, repeated, rows[:-1]):
        assert not reference.check(request, replace(result, rows=corrupt)).ok


def test_checker_flags_corrupted_aggregate_answers(tmp_path):
    reference, request, result = _answer(
        small("approx_agg"), tmp_path, lambda r: r.group_by is not None
    )
    rows = result.rows
    no_interval = [dict(rows[0], half_width=float("nan"))] + rows[1:]
    for corrupt in (rows[1:], no_interval):
        assert not reference.check(request, replace(result, rows=corrupt)).ok


def test_agree_flags_a_regression(tmp_path):
    def record(path, latency: float) -> str:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        metrics["latency_p50_ms"]["value"] = latency
        path.write_text(json.dumps({
            "workload": "limit_sample", "trace": 0, "metrics": metrics,
            "extra": {"failed_frac": 0.0},
        }))
        return str(path)

    base = [record(tmp_path / f"a{i}.json", 1.0 + i / 100) for i in range(3)]
    same = [record(tmp_path / f"b{i}.json", 1.0 + i / 100) for i in range(3)]
    slow = [record(tmp_path / f"c{i}.json", 1.5 + i / 100) for i in range(3)]
    assert agree(base, same, BENCHMARK) == 0
    assert agree(base, slow, BENCHMARK) == 1
