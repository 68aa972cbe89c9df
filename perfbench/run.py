"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json with tracing off; ``--trace 1`` makes the traced
run and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (samples, hashes, counts, machine) goes to
``.bench_build/perfbench/<workload>-seed<n>-trace<t>/result.json`` and the
traced run's spans to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT  # import perfbench as a package, not its files as modules

from perfbench.harness import BenchError, Harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# At seed 42 pipeline-default should reproduce these query outcomes
# (healthy, empty, empty-regather); a declared output change may move them.
ROADMAP_OUTCOMES = {"dqem.outcome.healthy": 438, "dqem.outcome.empty": 228,
                    "dqem.outcome.empty-regather": 134}


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "max_children": 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qebev", "cli.py")):
        print(f"error: no qebev sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(1, os.path.join(ROOT, "src"))

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    harness = Harness(ROOT, WORKLOADS[args.workload], args.seed, args.seconds, out_dir)
    spans_path = os.path.join(out_dir, "spans.jsonl")
    try:
        if args.trace:
            metrics, detail = harness.run_traced(spans_path)
        else:
            metrics, detail = harness.run_end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.cleanup()

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    correct = detail["failed"] == 0
    if args.trace and args.workload == "pipeline-default" and args.seed == 42:
        outcomes = {k: detail["counts"].get(k, 0) for k in ROADMAP_OUTCOMES}
        detail["roadmap_outcomes_match"] = outcomes == ROADMAP_OUTCOMES
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(), metrics=metrics)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['attempted']} attempted, {detail['failed']} failed "
          f"(fail_ratio {detail['fail_ratio']:.3f})")
    for m in declared:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    if "map" in detail:
        print(f"  {'map (mean over inputs, unbounded)':<36} {detail['map']:>14.6g} score")
    first = detail.get("inputs", {}).get("0") or detail
    for name, digest in sorted(first.get("sha256", {}).items()):
        print(f"  sha256 {name:<29} {digest}")
    print(f"  record: {os.path.relpath(os.path.join(out_dir, 'result.json'), ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
