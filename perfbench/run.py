#!/usr/bin/env python3
"""End-to-end benchmark of the mera aligner.

Run from the repository root:

    python3 perfbench/run.py --workload map_human --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the mera library from src/ plus the benchmark binary) into
.bench_build/perfbench, generates the workload's inputs from --seed under
.perfbench/, runs it and prints, as the last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer metrics (and
writes a Chrome trace plus a metrics-registry dump to .perfbench/out/).
Exit status 0 means the run finished and its correctness gate passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
RUNS = ".perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build once per checkout; later runs are no-op builds."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD, "-j4"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-record", action="store_true",
                    help="gate self-test: corrupt one output record; the run must fail")
    args = ap.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join("perfbench", "floors.json")) as f:
        floors = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    workdir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(RUNS, "out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    floor = floors[args.workload]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--outdir", outdir,
           "--floor-precision", str(floor["placement_precision"]),
           "--floor-recall", str(floor["recall_vs_findable"])]
    if args.corrupt_record:
        cmd.append("--corrupt-record")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line from the benchmark (exit {proc.returncode})")
        return 1
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            log(f"metric {m['name']} was not measured")
            return 1
        if got["unit"] != m["unit"]:
            log(f"metric {m['name']} measured in {got['unit']}, not {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if proc.returncode != 0 or not raw["correct"]:
        log(f"run failed its correctness gate (exit {proc.returncode})")
        print(json.dumps({"correct": False, "attempted": raw["attempted"],
                          "failed": max(1, raw["failed"]), "metrics": metrics}))
        return 1
    print(json.dumps({"correct": True, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
