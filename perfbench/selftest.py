#!/usr/bin/env python3
"""One-time self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs one pass of the lu-virtual workload at
the default FactorConfig seed (42) and checks that the four Table-2
backends reproduce the committed BENCH_virtual.json P = 512 entries
exactly: grid, total bytes, bytes per rank, messages, and predicted
seconds at the 12 significant digits that file stores. This proves the
benchmark drives the same program that produced the committed history.
Exits 0 when every entry matches, 1 otherwise.
"""
import json
import subprocess
import sys

from run import ROOT, build

BACKENDS = ("LibSci", "SLATE", "CANDMC", "COnfLUX")


def main():
    with open(ROOT / "BENCH_virtual.json") as f:
        committed = {pt["impl"]: pt for pt in json.load(f)["points"]
                     if pt["p"] == 512}
    out = subprocess.run(
        [str(build()), "--workload", "lu-virtual", "--seed", "42",
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=175).stdout
    measured = {}
    for line in out.splitlines():
        if line.startswith("# op "):
            op = json.loads(line[len("# op "):])
            measured[op["op"].removeprefix("lu.")] = op

    failures = 0
    for algo in BACKENDS:
        want, got = committed[algo], measured.get(algo)
        if got is None:
            print(f"FAIL {algo}: no result")
            failures += 1
            continue
        pairs = {
            "grid": (got["grid"], want["grid"]),
            "total_bytes": (got["total_bytes"], want["total_bytes"]),
            "bytes_per_rank": (got["bytes_per_rank"], want["bytes_per_rank"]),
            "messages": (got["messages"], want["messages"]),
            "predicted_seconds": (float("%.12g" % got["predicted_seconds"]),
                                  want["predicted_seconds"]),
        }
        bad = {k: v for k, v in pairs.items() if v[0] != v[1]}
        print(("FAIL " if bad else "ok   ") + algo +
              "".join(f"  {k}: {g} != {w}" for k, (g, w) in bad.items()))
        failures += bool(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
