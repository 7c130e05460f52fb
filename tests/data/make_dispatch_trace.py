"""Regenerate dispatch_trace.jsonl: multi-job slot dispatch, pinned.

Run from the repo root:

    PYTHONPATH=src python tests/data/make_dispatch_trace.py [OUT]

``OUT`` defaults to ``tests/data/dispatch_trace.jsonl``. The golden
trace runs one FIFO job; this one runs concurrent jobs on one cluster,
so the JobTracker's dispatch passes, the schedulers' job order and
delay scheduling are pinned byte for byte. Task durations carry a
little lognormal jitter (no stragglers), so slots free one by one
instead of in lock-step waves. Each phase runs a static scan and an LA
sampling job from t=0 and a second LA job over a four-split file,
submitted 10 s later while the scan's maps still queue:

1. FIFO, the late job at HIGH priority: it overtakes the NORMAL jobs.
2. Fair, 8 s locality wait: the scheduler is replaced while the cluster
   is idle. Jobs decline non-local slots, the dispatch-retry timer
   arms and fires, and once a stale timer is cancelled by a pass that
   resolves the stall.
3. Fair, 1 s locality wait: waits expire and jobs take non-local slots.

The run is fully deterministic (simulated clock, fixed seeds).
"""

import sys
from pathlib import Path

from repro import SimulatedCluster, make_sampling_conf
from repro.cluster import paper_topology
from repro.cluster.costmodel import StragglerModel
from repro.core.sampling_job import make_scan_conf
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.engine.jobconf import JOB_PRIORITY
from repro.engine.scheduler import FairScheduler
from repro.obs import TraceRecorder

OUT = Path(__file__).parent / "dispatch_trace.jsonl"


def _submit_phase(cluster, pred, prefix, late_priority):
    """Two NORMAL jobs now, a third at ``late_priority`` 10 s later."""
    scan = make_scan_conf(
        name=f"{prefix}-scan", input_path="/d", predicate=pred,
        fallback_selectivity=0.0005,
    )
    early = make_sampling_conf(
        name=f"{prefix}-normal", input_path="/d", predicate=pred,
        sample_size=2_000, policy_name="LA",
    )
    late = make_sampling_conf(
        name=f"{prefix}-late", input_path="/small", predicate=pred,
        sample_size=2_000, policy_name="LA",
    )
    late.set(JOB_PRIORITY, late_priority)
    cluster.submit(scan)
    cluster.submit(early)
    cluster.sim.schedule(10.0, cluster.submit, late, label="late-submit")
    cluster.run()


def write_dispatch_trace(out: Path = OUT):
    """Run the three phases with a trace recorder writing to ``out``."""
    pred = predicate_for_skew(1)
    data = build_profiled_dataset(dataset_spec_for_scale(10), {pred: 1.0}, seed=0)
    small = build_profiled_dataset(dataset_spec_for_scale(0.5), {pred: 1.0}, seed=0)
    with TraceRecorder(out) as trace:
        cluster = SimulatedCluster(
            paper_topology(), seed=0, trace=trace,
            straggler_model=StragglerModel(sigma=0.15, straggler_probability=0.0, seed=2),
        )
        cluster.load_dataset("/d", data)
        cluster.load_dataset("/small", small)
        _submit_phase(cluster, pred, "fifo", "HIGH")
        cluster.jobtracker.scheduler = FairScheduler(locality_delay=8.0)
        _submit_phase(cluster, pred, "fair", "NORMAL")
        cluster.jobtracker.scheduler = FairScheduler(locality_delay=1.0)
        _submit_phase(cluster, pred, "quick", "NORMAL")
        cluster.snapshot_cluster_metrics()
    return cluster.results


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    out = Path(args[0]) if args else OUT
    results = write_dispatch_trace(out)
    states = ", ".join(f"{r.name} {r.state.name}" for r in results)
    print(f"wrote {out} ({states})")


if __name__ == "__main__":
    main()
