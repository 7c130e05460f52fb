"""Command line of the query benchmark.

    python -m benchmarks.query run   --workload W [--seed S] [--seconds T] [--trace 0|1] [--out F]
    python -m benchmarks.query trace --workload W [--seed S] [--seconds T] [--out F]
    python -m benchmarks.query agree A.json... -- B.json...

``run`` prints every end-to-end metric by name with its unit, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. ``trace``
(or ``run --trace 1``) prints the per-layer metrics instead. ``--out``
writes the full run record; a traced run also writes its spans to the
same name with the suffix ``.spans.jsonl``. Scratch files live under
``.bench_build/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from benchmarks.query import ROOT, SRC


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks.query: no repro sources under {SRC}", file=sys.stderr)
        return 2
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"benchmarks.query: repro imports from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if argv[:1] == ["agree"]:
        from benchmarks.query.agree import agree

        rest = argv[1:]
        if "--" not in rest or not rest[: rest.index("--")] or not rest[rest.index("--") + 1 :]:
            print("usage: python -m benchmarks.query agree A.json... -- B.json...", file=sys.stderr)
            return 2
        split = rest.index("--")
        return agree(rest[:split], rest[split + 1 :], benchmark)

    from benchmarks.query.harness import run_workload
    from benchmarks.query.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m benchmarks.query")
    parser.add_argument("command", choices=("run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the run record (JSON) here")
    args = parser.parse_args(argv)
    if args.command == "trace" and args.trace == 0:
        parser.error("trace runs traced; use run for an untraced run")
    trace = args.command == "trace" or args.trace == 1

    workdir = ROOT / ".bench_build" / f"query-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = run_workload(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=args.seconds,
            trace=trace,
            workdir=str(workdir),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = record.pop("spans", None)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        if spans is not None:
            _write_spans(Path(args.out).with_suffix(".spans.jsonl"), spans)

    print(f"{args.workload}  seed {args.seed}  {record['attempted']} requests  "
          f"{record['failed']} failed  correct={record['correct']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["extra"].items():
        print(f"  {name:<34} {value:>16.6g}")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def _write_spans(path: Path, spans) -> None:
    keys = ("id", "parent", "request", "name", "start", "end", "self")
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


if __name__ == "__main__":
    sys.exit(main())
