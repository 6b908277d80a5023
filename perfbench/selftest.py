#!/usr/bin/env python3
"""Held-out-seed check of the benchmark.

    python3 perfbench/selftest.py

Runs a short pass of every workload at a seed that was not used while the
benchmark was tuned, and checks that every run verifies and that the
AXI-Pack run of every pair beats its base partner in simulated cycles.
One short traced run exercises the profile path and the traced-vs-untraced
identity check. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

import run

HELD_OUT_SEED = 97


def bench(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(HELD_OUT_SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"selftest: {workload} trace={trace} failed:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    with open(run.result_stem(workload, HELD_OUT_SEED, trace) + ".json") as f:
        return json.load(f)


def main():
    for workload in run.WORKLOADS:
        result = bench(workload, seconds=1, trace=0)
        bad = [r["label"] for r in result["runs"] if not r["correct"]]
        if bad or not result["correct"]:
            sys.exit(f"selftest: {workload}: runs failed: {bad}")
        for base, pack in run.pairs(result["runs"]):
            if pack["cycles"] >= base["cycles"]:
                sys.exit(f"selftest: {workload}: {pack['label']} "
                         f"({pack['cycles']} cycles) does not beat "
                         f"{base['label']} ({base['cycles']} cycles)")
        print(f"selftest: {workload}: {len(result['runs'])} runs verified, "
              "every AXI-Pack run beats its base partner")
    bench("strided-sram", seconds=3, trace=1)
    print("selftest: traced strided-sram run matches the untraced run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
