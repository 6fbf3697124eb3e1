#!/usr/bin/env python3
"""Benchmark of the reuleaux package, run from the root of a source tree.

    python3 perfbench/run.py --workload report_full --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the tree; nothing is installed.
Set-up (a fresh interpreter importing the package, input generation and a
warm-up call down each path) runs five times and reports its median.  Then
``--trace 0`` runs the workload's operations in a closed loop, one client,
for ``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
cycle with spans around the library's public calls plus direct layer
measurements and prints the per-layer metrics, writing the spans to
``perfbench/.out/``.  Every output is checked; the last line of standard
output is the JSON result.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Speedometer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_TRIALS = 5


def execute(op, tmp):
    """Run one operation; a raised error fails it without ending the run."""
    try:
        data, errs = op.run(tmp)
    except Exception as exc:  # one failed call must not stop the benchmark
        data, errs = None, [f"{type(exc).__name__}: {exc}"]
    errs = [f"{op.key}: {e}" for e in errs]
    for e in errs:
        print(f"FAILED {e}", file=sys.stderr)
    return op, data, errs


def run_for(ops, seconds: float, tmp: str, speed):
    """Closed loop, one client: the next call starts when the last one
    returns.  The first cycle always completes; after it, a call whose last
    duration would carry the run past ``seconds`` is skipped.  Each call's
    wall time is scaled to reference machine speed."""
    results = []
    last: dict[str, float] = {}
    start = time.perf_counter()
    i = skipped = 0
    while skipped < len(ops):
        op = ops[i % len(ops)]
        i += 1
        if i > len(ops) and (time.perf_counter() - start + last[op.key]
                             > seconds):
            skipped += 1
            continue
        skipped = 0
        t = time.perf_counter()
        (_, data, errs), factor = speed.timed(lambda: execute(op, tmp))
        last[op.key] = time.perf_counter() - t
        if data is not None:
            data["wall_s"] *= factor
        results.append((op, data, errs))
    return results


def set_up(workload: str, seed: int, tmp: str, speed):
    """Five set-up trials; returns the last trial's operations and inputs
    and the median scaled trial time."""
    import workloads
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def trial():
        subprocess.run([sys.executable, "-c", "import reuleaux.cli"],
                       env=env, check=True, timeout=60)
        ops, inputs = workloads.build(workload, seed, tmp)
        return ops, inputs, inputs.errors + workloads.warm_up(tmp)

    times = []
    for _ in range(SETUP_TRIALS):
        start = clock()
        (ops, inputs, errs), factor = speed.timed(trial)
        times.append((clock() - start) * factor)
    return ops, inputs, errs, statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reuleaux" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    speed = Speedometer()
    try:
        ops, inputs, setup_errs, setup_s = set_up(args.workload, args.seed,
                                                  str(tmp), speed)
        if args.trace:
            results, tracer = layers.traced_cycle(ops, str(tmp), execute)
            metrics, probe_errs = layers.per_layer(
                results, tracer, inputs,
                inputs.report("report.tetra", "tetra", workloads.PROBE_MC),
                str(tmp), execute)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(tracer.to_dict()),
                                  encoding="utf-8")
            print(f"spans written to {trace_path.relative_to(ROOT)}",
                  file=sys.stderr)
        else:
            results = run_for(ops, args.seconds, str(tmp), speed)
            metrics = workloads.end_to_end(results)
            probe_errs = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for e in setup_errs + probe_errs:
        print(f"FAILED {e}", file=sys.stderr)
    failed = sum(1 for _, _, errs in results if errs)
    failed += bool(setup_errs) + bool(probe_errs)
    attempted = len(results) + 1 + bool(args.trace)
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["pass_frac"] = (attempted - failed) / attempted
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]}
                    for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
