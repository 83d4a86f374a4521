#!/usr/bin/env python3
"""Compares two sets of bench_discovery results, workload by workload.

  python3 discovery_bench/compare.py BASE NEW [--benchmark BENCHMARK.json]
  python3 discovery_bench/compare.py --self-test

BASE and NEW are directories of untraced result JSONs (run.py --out writes
them). Run the two sides interleaved, one run of each per seed with the
side that goes first alternating, so a drift in the machine's speed falls
on both. For every workload and end-to-end metric this prints each side's
median and quartiles and a verdict, using the direction and bound that
BENCHMARK.json gives the metric:

  better      the new side wins at least 9 of every 10 pairs (runs pair up
              by seed; ties count for neither) and the medians differ by
              more than the base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the bound (a share of the base median), or the new side loses
              at least 9 of every 10 pairs and the medians differ by more
              than the base side's interquartile range;
  unresolved  the base side's interquartile range exceeds the bound and
              not every new run beats every base run;
  same        otherwise.

Failed requests rank after every success in the latency metrics, so a few
of them move no percentile. Each workload therefore also gets a "failed"
row comparing the two sides' median share of failed requests: worse when
the new share is higher, and then no metric of that workload reads better.

Exits 1 when any verdict is worse.
"""

import argparse
import json
import os
import random
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(folder):
    """{workload: [(seed, {metric: value}, failed share)]} of the untraced
    results."""
    runs = {}
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(folder, name)) as handle:
            result = json.load(handle)
        if result.get("traced") or "workload" not in result:
            continue
        values = {k: m["value"] for k, m in result["metrics"].items()}
        failed = result["failed"] / max(1, result["attempted"])
        runs.setdefault(result["workload"], []).append(
            (result.get("seed"), values, failed))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound, more_failures=False):
    """Compares two lists of (seed, value); returns (verdict, details).
    With `more_failures` (the new side fails more requests) the verdict is
    never better."""
    sign = 1.0 if better == "higher" else -1.0
    base_values = [v for _, v in base]
    new_values = [v for _, v in new]
    b1, b2, b3 = quartiles(base_values)
    n1, n2, n3 = quartiles(new_values)
    new_by_seed = dict(new)
    pairs = [(v, new_by_seed[s]) for s, v in base if s in new_by_seed]
    if not pairs:
        pairs = list(zip(sorted(base_values), sorted(new_values)))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    worse_by = -sign * (n2 - b2) / abs(b2) if b2 else 0.0
    spread = (b3 - b1) / abs(b2) if b2 else 0.0
    if sign > 0:
        all_better = min(new_values) > max(base_values)
    else:
        all_better = max(new_values) < min(base_values)
    if (pairs and wins >= 0.9 * len(pairs) and worse_by < 0
            and abs(n2 - b2) > (b3 - b1) and not more_failures):
        result = "better"
    elif worse_by > bound or (pairs and losses >= 0.9 * len(pairs)
                              and worse_by > 0
                              and abs(n2 - b2) > (b3 - b1)):
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "same"
    return result, {"base": (b1, b2, b3), "new": (n1, n2, n3),
                    "worse_by": worse_by, "spread": spread,
                    "wins": wins, "pairs": len(pairs)}


def compare(base_runs, new_runs, benchmark):
    """Prints one row per (workload, metric); returns the verdicts."""
    verdicts = []
    print(f"{'workload':<14} {'metric':<14} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'worse by':>9} {'wins':>6}  verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        base_failed = [f for _, _, f in base_runs.get(workload, [])]
        new_failed = [f for _, _, f in new_runs.get(workload, [])]
        more_failures = bool(base_failed and new_failed) and (
            statistics.median(new_failed) > statistics.median(base_failed))
        if base_failed and new_failed:
            verdicts.append("worse" if more_failures else "same")
            print(f"{workload:<14} {'failed':<14} "
                  f"{statistics.median(base_failed):>10.4g}".ljust(60) +
                  f"{statistics.median(new_failed):>10.4g}".ljust(48) +
                  f"{verdicts[-1]}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [(s, v[name]) for s, v, _ in base_runs.get(workload, [])
                    if name in v]
            new = [(s, v[name]) for s, v, _ in new_runs.get(workload, [])
                   if name in v]
            if not base or not new:
                print(f"{workload:<14} {name:<14} missing on one side")
                verdicts.append("missing")
                continue
            result, d = verdict(base, new, metric["better"], metric["bound"],
                                more_failures)
            verdicts.append(result)
            b1, b2, b3 = d["base"]
            n1, n2, n3 = d["new"]
            print(f"{workload:<14} {name:<14} "
                  f"{b2:>10.4g} [{b1:.4g}, {b3:.4g}]".ljust(60) +
                  f"{n2:>10.4g} [{n1:.4g}, {n3:.4g}]".ljust(31) +
                  f"{100 * d['worse_by']:>8.1f}% "
                  f"{d['wins']:>2}/{d['pairs']:<3}  {result}")
    return verdicts


def self_test():
    """Checks every verdict on synthetic runs, through files on disk."""
    rng = random.Random(7)
    benchmark = {"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "rate_qps", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    def runs(center, noise, seeds=range(10)):
        return [(s, center * (1 + rng.uniform(-noise, noise))) for s in seeds]

    cases = [
        ("same", runs(10, 0.01), runs(10, 0.01), "lower"),
        ("worse", runs(10, 0.01), runs(12, 0.01), "lower"),
        ("better", runs(10, 0.01), runs(8, 0.01), "lower"),
        ("unresolved", runs(10, 0.4), runs(10, 0.4), "lower"),
        ("better", runs(100, 0.01), runs(130, 0.01), "higher"),
        ("worse", runs(100, 0.01), runs(80, 0.01), "higher"),
        ("same", runs(100, 0.01), runs(100.2, 0.01), "higher"),
        # Within the bound, but every pair loses by more than the spread.
        ("worse", runs(10, 0.01), runs(10.6, 0.01), "lower"),
    ]
    for want, base, new, better in cases:
        got, _ = verdict(base, new, better, 0.1)
        assert got == want, f"expected {want}, got {got} ({better})"
    # A clear latency win does not count when more requests fail.
    got, _ = verdict(runs(10, 0.01), runs(8, 0.01), "lower", 0.1,
                     more_failures=True)
    assert got == "same", f"expected same with more failures, got {got}"

    with tempfile.TemporaryDirectory() as folder:
        sides = {}
        for side, latency, rate, failed in (("base", 10, 100, 0),
                                            ("new", 13, 100, 0),
                                            ("faster_failing", 8, 100, 3)):
            path = os.path.join(folder, side)
            os.makedirs(path)
            for seed in range(10):
                result = {"workload": "w", "seed": seed, "traced": False,
                          "attempted": 1000, "failed": failed,
                          "metrics": {
                              "latency_ms": {"value": latency + 0.01 * seed,
                                             "unit": "ms"},
                              "rate_qps": {"value": rate + 0.1 * seed,
                                           "unit": "1/s"}}}
                with open(os.path.join(path, f"w-{seed}.json"), "w") as out:
                    json.dump(result, out)
            sides[side] = load_runs(path)
        verdicts = compare(sides["base"], sides["new"], benchmark)
        assert verdicts == ["same", "worse", "same"], verdicts
        verdicts = compare(sides["base"], sides["faster_failing"], benchmark)
        assert verdicts == ["worse", "same", "same"], verdicts
    print("compare.py self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("BASE and NEW are required")
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    verdicts = compare(load_runs(args.base), load_runs(args.new), benchmark)
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
