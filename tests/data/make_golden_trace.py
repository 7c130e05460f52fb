"""Regenerate golden_trace.jsonl.

Run from the repo root:

    PYTHONPATH=src python tests/data/make_golden_trace.py [OUT]

``OUT`` defaults to ``tests/data/golden_trace.jsonl``. The run is fully
deterministic (simulated clock, fixed seeds), so the file only changes
when the trace schema or the engine's event stream changes — which is
exactly what the golden test is meant to catch: it regenerates into a
temporary file and compares the bytes with the committed copy.
"""

import sys
from pathlib import Path

from repro import SimulatedCluster, make_sampling_conf
from repro.data import build_profiled_dataset, dataset_spec_for_scale, predicate_for_skew
from repro.engine.failures import FailFirstAttempts
from repro.obs import TraceRecorder

OUT = Path(__file__).parent / "golden_trace.jsonl"


def write_golden_trace(out: Path = OUT):
    """Run the golden job with a trace recorder writing to ``out``."""
    pred = predicate_for_skew(1)
    data = build_profiled_dataset(dataset_spec_for_scale(5), {pred: 1.0}, seed=0)
    with TraceRecorder(out) as trace:
        cluster = SimulatedCluster.paper_cluster(
            seed=0, trace=trace,
            failure_injector=FailFirstAttempts(attempts_to_fail=1),
        )
        cluster.load_dataset("/d", data)
        conf = make_sampling_conf(
            name="golden", input_path="/d", predicate=pred,
            sample_size=10_000, policy_name="LA",
        )
        result = cluster.run_job(conf)
        cluster.snapshot_cluster_metrics()
    return result


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    out = Path(args[0]) if args else OUT
    result = write_golden_trace(out)
    print(f"wrote {out} ({result.state.name}, {result.outputs_produced} outputs)")


if __name__ == "__main__":
    main()
