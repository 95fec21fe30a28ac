#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the perfbench binary from source
(CMake, Release, into .bench_build/perfbench) and runs one workload.

With --trace 0 the measurement is split over one perfbench process per 10 s
of --seconds, run one after another, and each end-to-end metric is the
lowest value any of those processes reports (each process reports the
median of its own samples). On a shared host, neighbours slow a whole
process down, for tens of seconds at a time and by up to 1.7x on
lu-virtual; they never make one faster, and every end-to-end metric is
lower-is-better, so the best process is the one least disturbed. With
--trace 1 one perfbench process runs the traced measurement.

The last line of standard output is the JSON result. Exits non-zero,
without a result, when the build or a perfbench process fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("lu-virtual", "chol-virtual", "numeric")
SECONDS_PER_PROCESS = 10
# Each perfbench process ends itself on a stall (its own watchdog); this is the
# backstop for the whole measurement, build excluded.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def run_perfbench(cmd, deadline):
    """Run one perfbench process, relay its output and return its parsed result line."""
    try:
        # On timeout, run() kills the process and waits for it to end.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: a perfbench process overran the time limit")
    if proc.returncode != 0:
        sys.exit(f"perfbench: a perfbench process exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.exit("perfbench: a perfbench process printed no result line")
    for line in lines[:-1]:
        print(line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    cmd = [str(build()), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        result = run_perfbench(cmd + ["--seconds", str(args.seconds),
                                   "--spans", str(spans)], deadline)
        print(json.dumps(result))
        return 0

    processes = max(1, args.seconds // SECONDS_PER_PROCESS)
    results = []
    for i in range(processes):
        print(f"# perfbench process {i + 1} of {processes}")
        results.append(run_perfbench(
            cmd + ["--seconds", str(args.seconds / processes)], deadline))
        if results[-1]["failed"]:
            break  # a stall already cost its watchdog's limit; stop here
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        metrics[name] = {"value": min(values), "unit": first["unit"]}
        print(f"{name} = {metrics[name]['value']:.8g} {first['unit']} "
              f"(lowest of {len(values)} processes: "
              + " ".join(f"{v:.6g}" for v in values) + ")")
    vol = {r["metrics"].get("vol_over_bound", {}).get("value") for r in results}
    if len(vol) > 1:
        print(f"# check failed: vol_over_bound differs between processes: {vol}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results) and len(vol) == 1,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
