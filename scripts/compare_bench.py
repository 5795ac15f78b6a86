#!/usr/bin/env python3
"""Compare two perf_microbench JSON snapshots and fail on regressions.

Usage:
    compare_bench.py baseline.json current.json [--threshold 0.20]

Benchmarks are matched by name; a benchmark counts as regressed when its
current real_time exceeds the baseline's by more than the threshold (after
normalizing time units).  A benchmark run with repetitions is represented by
its median aggregate, under its run name without the `/repeats:N` part, so
it matches the same benchmark recorded without repetitions.  Benchmarks
that report a `final_cost` counter (the bit-exactness anchor of the
annealing benches) are additionally checked for *any* drift: the solvers
are deterministic, so a changed final_cost is a correctness regression and
fails the gate exactly like a perf regression.
Benchmarks present on only one side are reported but never fail the
comparison, so adding or retiring benchmarks does not break the nightly
gate.  Exit status: 0 = no regression, 1 = at least one benchmark regressed
or drifted, 2 = malformed input.

The nightly CI job runs this against the last *committed* bench/BENCH_*.json
(see .github/workflows/ci.yml); run it locally before quoting perf deltas:

    scripts/record_bench.sh
    python3 scripts/compare_bench.py bench/BENCH_<old>.json bench/BENCH_<new>.json
"""

import argparse
import json
import math
import re
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """Returns {name: (real_time_ns, final_cost_or_None)} per benchmark."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        benchmarks = {}
        medians = {}
        for entry in doc["benchmarks"]:
            aggregate = entry.get("run_type") == "aggregate"
            if aggregate and entry.get("aggregate_name") != "median":
                continue
            unit = _UNIT_NS.get(entry.get("time_unit", "ns"))
            if unit is None:
                raise ValueError(f"unknown time_unit in {entry['name']}")
            final_cost = entry.get("final_cost")
            if final_cost is not None:
                final_cost = float(final_cost)
            value = (float(entry["real_time"]) * unit, final_cost)
            if aggregate:
                medians[re.sub(r"/repeats:\d+", "", entry["run_name"])] = value
            else:
                benchmarks[entry["name"]] = value
        benchmarks.update(medians)
        return benchmarks
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as error:
        print(f"error: cannot read benchmark JSON {path}: {error}", file=sys.stderr)
        sys.exit(2)


def format_ns(value_ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if value_ns >= scale:
            return f"{value_ns / scale:.3g} {unit}"
    return f"{value_ns:.3g} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline JSON (last committed BENCH_*.json)")
    parser.add_argument("current", help="freshly recorded JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed relative real_time growth (default 0.20)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)

    regressions = []
    drifts = []
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: the snapshots share no benchmark names", file=sys.stderr)
        sys.exit(2)
    width = max(len(name) for name in shared)
    for name in shared:
        base_ns, base_cost = baseline[name]
        cur_ns, cur_cost = current[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        marker = " REGRESSED" if ratio > 1.0 + args.threshold else ""
        # The solvers are deterministic; any final_cost drift between two
        # snapshots of the same benchmark is a correctness change, not timing
        # noise (the epsilon absorbs JSON round-tripping and FP accumulation
        # order only).  Caveat: across *different* machines or toolchains a
        # libm change can flip a single SA acceptance and move final_cost
        # legitimately — when that happens, re-record the baseline on the
        # environment that runs the gate and commit it with the explanation.
        drifted = (base_cost is not None and cur_cost is not None
                   and not math.isclose(base_cost, cur_cost, rel_tol=1e-7, abs_tol=0.0))
        if drifted:
            marker += f" FINAL_COST DRIFT ({base_cost!r} -> {cur_cost!r})"
            drifts.append((name, base_cost, cur_cost))
        elif (base_cost is None) != (cur_cost is None):
            # A one-sided counter silently disables the drift check for this
            # benchmark — say so instead of passing it green without comment.
            side = "baseline" if base_cost is not None else "current"
            marker += f" final_cost only in {side} (drift check skipped)"
        print(f"{name:<{width}}  {format_ns(base_ns):>10} -> "
              f"{format_ns(cur_ns):>10}  ({ratio - 1.0:+.1%} vs baseline){marker}")
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  only in baseline (ignored)")
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  only in current (ignored)")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} vs {args.baseline}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline real_time")
    if drifts:
        print(f"\n{len(drifts)} benchmark(s) drifted in final_cost vs "
              f"{args.baseline} (bit-exactness regression):")
        for name, base_cost, cur_cost in drifts:
            print(f"  {name}: {base_cost!r} -> {cur_cost!r}")
    if regressions or drifts:
        return 1
    print(f"\nno regression beyond {args.threshold:.0%} and no final_cost drift "
          f"across {len(shared)} shared benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
