#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and quartile spread (IQR / median), next to the bound
BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --workload wepic --runs 10 [--first-seed 1]

A spread above a third of the bound is flagged: the benchmark should
be steady enough that run-to-run noise stays well inside the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print("seed %d: exit %d" % (seed, done.returncode))
            print(done.stdout[-2000:])
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (
                seed, result["correct"], result["failed"]))
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, result["metrics"][n]["value"]) for n in bounds)),
            flush=True)

    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print("%-24s median %-12.5g spread %6.3f  bound %.2f  %s" % (
            name, med, spread, bounds[name],
            "ok" if share < 1 / 3 else "ABOVE A THIRD OF THE BOUND"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
