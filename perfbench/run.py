#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wepic --seed 1 --seconds 10 --trace 0

Workloads: wepic, social_durable, tcp_cluster (see perfbench/README.md).
The first run configures and builds the library, wdl_peerd and the
driver in .bench_build/perfbench (Release); later runs only rebuild what
changed. The driver's stdout is passed through; its last line is the
JSON result. Build output goes to stderr. Exits non-zero, without a
result, when the build fails (for instance outside a full checkout).
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("wepic", "social_durable", "tcp_cluster")
# Knobs that would override the library's production defaults.
OVERRIDES = ("WDL_EVAL_THREADS", "WDL_WORKER_THREADS", "WDL_QUERY_DEMAND")


def die_with_parent():
    """Child-side: get SIGKILL when this script dies (PR_SET_PDEATHSIG),
    so a killed run leaves no driver behind."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def build(env):
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    steps = [cmd, ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                   "wdl_perfbench", "wdl_peerd"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            return False
    return True


def find(name):
    for sub in ("", "wdl/tools"):
        path = os.path.join(BUILD_DIR, sub, name)
        if os.path.isfile(path):
            return path
    return None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in OVERRIDES}
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver, peerd = find("wdl_perfbench"), find("wdl_peerd")
    if driver is None or peerd is None:
        print("perfbench: built binaries not found", file=sys.stderr)
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--peerd", peerd,
           "--work-dir", os.path.join(BUILD_ROOT, "runs"),
           "--trace-dir", os.path.join(BUILD_ROOT, "traces")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          preexec_fn=die_with_parent)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode

    # The driver and BENCHMARK.json must agree on the metric names.
    expected = expected_metrics(args.trace == 1)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if expected is not None and set(result["metrics"]) != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(result["metrics"]) ^ expected), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
