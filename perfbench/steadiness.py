#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/steadiness.py --workload map_human --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (sequentially) and prints, for every
metric of the mode, the median and the inter-quartile spread as a share of
the median (statistics.quantiles(n=4)), next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged.
With --repeat, every seed runs twice and the metrics other than timings
(counts, bytes, ratios) that differ between the two runs of one seed are
listed: they should only be the ones known to depend on thread timing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    timing_units = {"s", "ms", "ns", "reads/s", "MB/s", "GCUPS"}

    runs, repeats = [], []
    for seed in args.seeds:
        runs.append(run(args.workload, seed, spec["run_seconds"], args.trace))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
        if args.repeat:
            again = run(args.workload, seed, spec["run_seconds"], args.trace)
            repeats.append(sorted(
                f"{k} {runs[-1][k]:.10g} -> {again[k]:.10g}" for k in again
                if units[k] not in timing_units and again[k] != runs[-1][k]))
    print(f"\n{args.workload}, {len(runs)} runs")
    print(f"{'metric':34} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            flag = "  <-- spread >= bound/3"
        print(f"{name:34} {med:12.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    for seed, changed in zip(args.seeds, repeats):
        print(f"seed {seed}: non-timing metrics that differ between two runs: "
              f"{changed or 'none'}")


if __name__ == "__main__":
    main()
