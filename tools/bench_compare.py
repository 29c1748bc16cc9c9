#!/usr/bin/env python3
"""Compare two merged bench baselines (schema wdl-bench-baseline-v1).

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--suite SUITE]
                   [--fail-below R] [--counters PREFIX[,PREFIX...]]
                   [--latency] [--memory]

Prints a per-benchmark throughput table: baseline and current wall time
per iteration, and the throughput ratio current-vs-baseline (>1 means
the current tree is faster: throughput in tuples/sec scales as
1/real_time for a fixed workload). A per-suite and overall geometric
mean follows. Exit status is 0 unless --fail-below is given and the
overall geomean ratio falls below it (informational by default: bench
boxes are noisy, especially CI runners).

Times are normalised to ns whatever each benchmark's `time_unit`. When
a file was recorded with repetitions, each benchmark's "median"
aggregate row stands for it; otherwise its single iteration row does.

--counters adds a second table of custom benchmark counters whose names
start with one of the given prefixes (default when the flag is given
bare: the propagation-plane set "bytes,wire_,delta_,full_,resyncs") —
how the tree's wire traffic moved, next to how its wall time moved.
"""

import argparse
import json
import math
import sys


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def representative_rows(report):
    """One row per benchmark, keyed by its run name: the "median"
    aggregate when the run had repetitions, else the iteration row (the
    median one by real_time, should several repetitions appear without
    aggregates)."""
    medians, iterations = {}, {}
    for bench in report.get("benchmarks", []):
        name = bench.get("run_name", bench["name"])
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = bench
        elif bench.get("run_type") == "iteration":
            iterations.setdefault(name, []).append(bench)
    rows = {}
    for name, reps in iterations.items():
        reps = sorted(reps, key=lambda b: b["real_time"])
        rows[name] = reps[len(reps) // 2]
    rows.update(medians)
    return rows


def real_time_ns(bench):
    return bench["real_time"] * NS_PER_UNIT[bench.get("time_unit", "ns")]


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "wdl-bench-baseline-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_suites(path):
    """Per-suite {benchmark: wall time per iteration in ns}."""
    suites = {}
    for suite, report in load_doc(path).get("suites", {}).items():
        for name, bench in representative_rows(report).items():
            suites.setdefault(suite, {})[name] = real_time_ns(bench)
    return suites


# Google Benchmark emits custom counters as extra numeric keys on each
# benchmark object, next to its standard fields.
STANDARD_KEYS = {
    "real_time", "cpu_time", "iterations", "threads",
    "repetitions", "repetition_index", "family_index",
    "per_family_instance_index", "time_unit",
}


def load_counters(path, prefixes):
    suites = {}
    for suite, report in load_doc(path).get("suites", {}).items():
        for name, bench in representative_rows(report).items():
            for key, value in bench.items():
                if key in STANDARD_KEYS or not isinstance(value, (int, float)):
                    continue
                if not any(key.startswith(p) for p in prefixes):
                    continue
                suites.setdefault(suite, {})[(name, key)] = value
    return suites


def print_counters(base_path, curr_path, prefixes, suite_filter):
    base = load_counters(base_path, prefixes)
    curr = load_counters(curr_path, prefixes)
    suites = sorted(set(base) | set(curr))
    if suite_filter:
        suites = [s for s in suites if s in set(suite_filter)]
    rows = []
    for suite in suites:
        for key in sorted(set(base.get(suite, {})) | set(curr.get(suite, {}))):
            name, counter = key
            b = base.get(suite, {}).get(key)
            c = curr.get(suite, {}).get(key)
            rows.append((f"{name}:{counter}", b, c))
    if not rows:
        return
    name_w = max(len(r[0]) for r in rows) + 2
    print()
    print(f"counters ({','.join(prefixes)})")
    print(f"{'benchmark:counter':<{name_w}} {'baseline':>14} {'current':>14} "
          f"{'ratio':>8}")
    print("-" * (name_w + 40))
    for label, b, c in rows:
        b_s = f"{b:,.0f}" if b is not None else "(absent)"
        c_s = f"{c:,.0f}" if c is not None else "(absent)"
        if b and c is not None and b > 0:
            ratio = f"{c / b:>7.2f}x"
        else:
            ratio = f"{'-':>8}"
        print(f"{label:<{name_w}} {b_s:>14} {c_s:>14} {ratio}")


LATENCY_KEYS = ("p50_ns", "p95_ns", "p99_ns")


def load_latency(path):
    """Per-benchmark tail-latency counters (p50_ns/p95_ns/p99_ns),
    recorded by benches that time each iteration by hand (bench_query's
    bound-point lookups); absent elsewhere."""
    suites = {}
    for suite, report in load_doc(path).get("suites", {}).items():
        for name, bench in representative_rows(report).items():
            if not all(k in bench for k in LATENCY_KEYS):
                continue
            suites.setdefault(suite, {})[name] = tuple(
                bench[k] for k in LATENCY_KEYS)
    return suites


def print_latency(base_path, curr_path, suite_filter):
    base = load_latency(base_path)
    curr = load_latency(curr_path)
    suites = sorted(set(base) | set(curr))
    if suite_filter:
        suites = [s for s in suites if s in set(suite_filter)]
    rows = []
    for suite in suites:
        for name in sorted(set(base.get(suite, {})) | set(curr.get(suite, {}))):
            rows.append((name, base.get(suite, {}).get(name),
                         curr.get(suite, {}).get(name)))
    print()
    if not rows:
        print("latency: no p50/p95/p99 counters in either file")
        return
    name_w = max(len(r[0]) for r in rows) + 2
    print("latency percentiles (per-iteration wall time)")
    print(f"{'benchmark':<{name_w}} {'':>9} {'p50':>10} {'p95':>10} "
          f"{'p99':>10}")
    print("-" * (name_w + 42))
    for name, b, c in rows:
        for label, values in (("baseline", b), ("current", c)):
            if values is None:
                print(f"{name:<{name_w}} {label:>9} {'(absent)':>32}")
            else:
                p50, p95, p99 = (fmt_time(v) for v in values)
                print(f"{name:<{name_w}} {label:>9} {p50:>10} {p95:>10} "
                      f"{p99:>10}")


def load_memory(path):
    """Suite-level peak RSS recorded by run_bench.cmake's rss_run
    wrapper; absent in baselines taken before the wrapper existed."""
    return {suite: report.get("peak_rss_mb")
            for suite, report in load_doc(path).get("suites", {}).items()}


def print_memory(base_path, curr_path, suite_filter):
    base = load_memory(base_path)
    curr = load_memory(curr_path)
    suites = sorted(set(base) | set(curr))
    if suite_filter:
        suites = [s for s in suites if s in set(suite_filter)]
    rows = [(s, base.get(s), curr.get(s)) for s in suites
            if base.get(s) is not None or curr.get(s) is not None]
    print()
    if not rows:
        print("memory: no peak_rss_mb data in either file "
              "(benches ran without the rss_run wrapper)")
        return
    name_w = max(len(r[0]) for r in rows) + 2
    print("memory (peak RSS of each bench process, MB)")
    print(f"{'suite':<{name_w}} {'baseline':>10} {'current':>10} "
          f"{'ratio':>8}")
    print("-" * (name_w + 32))
    for suite, b, c in rows:
        b_s = f"{b:,.1f}" if b is not None else "(absent)"
        c_s = f"{c:,.1f}" if c is not None else "(absent)"
        if b and c is not None and b > 0:
            ratio = f"{c / b:>7.2f}x"
        else:
            ratio = f"{'-':>8}"
        print(f"{suite:<{name_w}} {b_s:>10} {c_s:>10} {ratio}")


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f}{unit}"
    return f"{ns:.0f}ns"


def geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--suite", action="append",
                        help="restrict to these suites (repeatable)")
    parser.add_argument("--fail-below", type=float, default=None,
                        help="exit 1 when the overall geomean throughput "
                             "ratio is below this value")
    parser.add_argument("--counters", nargs="?", const="bytes,wire_,delta_,"
                        "full_,resyncs", default=None, metavar="PREFIXES",
                        help="also print custom counters whose names start "
                             "with one of these comma-separated prefixes")
    parser.add_argument("--latency", action="store_true",
                        help="also print p50/p95/p99 per-iteration wall "
                             "times for benches that record them "
                             "(bench_query bound-point lookups)")
    parser.add_argument("--memory", action="store_true",
                        help="also print the per-suite peak-RSS column "
                             "recorded by the rss_run wrapper")
    args = parser.parse_args()

    base = load_suites(args.baseline)
    curr = load_suites(args.current)
    suites = sorted(set(base) & set(curr))
    if args.suite:
        suites = [s for s in suites if s in set(args.suite)]
    if not suites:
        sys.exit("no common suites to compare")

    name_w = max((len(n) for s in suites for n in base[s]), default=30) + 2
    all_ratios = []
    print(f"{'benchmark':<{name_w}} {'baseline':>10} {'current':>10} "
          f"{'throughput':>11}")
    print("-" * (name_w + 34))
    for suite in suites:
        common = sorted(set(base[suite]) & set(curr[suite]))
        only_base = sorted(set(base[suite]) - set(curr[suite]))
        only_curr = sorted(set(curr[suite]) - set(base[suite]))
        if not common and not only_base and not only_curr:
            continue
        ratios = []
        print(f"[{suite}]")
        for name in common:
            b, c = base[suite][name], curr[suite][name]
            ratio = b / c if c > 0 else float("inf")
            ratios.append(ratio)
            all_ratios.append(ratio)
            print(f"  {name:<{name_w - 2}} {fmt_time(b):>10} "
                  f"{fmt_time(c):>10} {ratio:>10.2f}x")
        for name in only_base:
            print(f"  {name:<{name_w - 2}} {'(removed)':>10}")
        for name in only_curr:
            print(f"  {name:<{name_w - 2}} {'(new)':>32}")
        if ratios:
            print(f"  {'geomean':<{name_w - 2}} {'':>21} "
                  f"{geomean(ratios):>10.2f}x")
    if all_ratios:
        overall = geomean(all_ratios)
        print("-" * (name_w + 34))
        print(f"{'overall geomean':<{name_w}} {'':>21} {overall:>10.2f}x "
              f"({len(all_ratios)} benchmarks)")
        if args.fail_below is not None and overall < args.fail_below:
            print(f"FAIL: overall geomean {overall:.2f}x is below "
                  f"{args.fail_below:.2f}x")
            return 1
    if args.counters:
        print_counters(args.baseline, args.current,
                       [p for p in args.counters.split(",") if p],
                       args.suite)
    if args.latency:
        print_latency(args.baseline, args.current, args.suite)
    if args.memory:
        print_memory(args.baseline, args.current, args.suite)
    return 0


if __name__ == "__main__":
    sys.exit(main())
