#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench_topk_search --json run
against the checked-in baseline (BENCH_topk_search.json) and fail on
meaningful regressions of the named metrics.

Raw millisecond timings on shared CI runners are too noisy to gate
directly, so the gate watches *ratio and count* metrics — speedups, hit
rates, allocation and byte counts — which are stable across machines.
Each check carries a relative tolerance (default 25%) plus a small
absolute slack so near-zero baselines don't turn measurement jitter into
failures.

Usage:
    bench_check.py BASELINE.json CURRENT.json

Exit status: 0 when every check passes, 1 on any regression or missing
metric, 2 on unreadable input.
"""

import json
import sys

# (metric, direction, relative_tolerance, absolute_slack)
#   direction "higher": regression when current < baseline*(1-tol) - slack
#   direction "lower":  regression when current > baseline*(1+tol) + slack
CHECKS = [
    # Front tier: the result cache must keep repaying repeated queries.
    ("part8_cache_hit_rate", "higher", 0.25, 0.02),
    ("part8_repeat_speedup", "higher", 0.25, 0.50),
    # Scoring hot path: the batched kernel's measured win must not
    # erode, and the index must not grow back a second copy of candidates.
    ("part9_batched_speedup", "higher", 0.25, 0.20),
    ("part9_index_bytes_per_candidate", "lower", 0.25, 64.00),
    # The no-join probe against JoinSketches (a hash map per candidate)
    # over the same sweep: a probe that went back to a branchy merge or
    # started touching each candidate's sketch falls below the floor.
    ("part9_probe_speedup", "higher", 0.25, 1.00),
    # The estimator kernel: MixedKSG's brute force against its tree oracle
    # at n = 40, by the dispatched kernel (four query points per pass on
    # AVX2) and by the 2-lane baseline kernel, which every CPU runs. A
    # kernel that fell back to one point per pass or to branchy selection
    # falls below the floor. The dispatched speedup is gated only when the
    # run's part9_ksg_lanes equals the baseline's (see SAME_LANES).
    ("part9_ksg_brute_speedup", "higher", 0.25, 0.10),
    ("part9_ksg_brute_speedup_2_lanes", "higher", 0.25, 0.10),
    # Allocation counts are deterministic, not timings: a jump means the
    # hot path started allocating again. Per candidate, the scoring tail
    # allocates nothing once warm; the slack is a quarter allocation, so
    # one allocation per scored candidate fails.
    ("part9_probe_allocs_per_query", "lower", 0.25, 1.00),
    ("part9_batched_allocs_per_query", "lower", 0.25, 16.00),
    ("part9_allocs_per_candidate", "lower", 0.25, 0.25),
    # The same evaluation at the bench's thread count on the warm shared
    # pool: a fan-out allocating per strip (a queued task each) or
    # spawning threads per call costs ~10x this; two allocations of slack.
    ("part9_allocs_per_query_xT", "lower", 0.25, 2.00),
    # The query build (JoinMIQuery::Create on a 9000-row table), warm: the
    # builder, the selection's buffer and output, the key runs' arrays and
    # the serialized-sketch slot, 9 in all. A per-call occurrence counter
    # (3 more) or run arrays grown by push_back (16 more) fail; one
    # allocation of slack.
    ("part9_query_build_allocs", "lower", 0.10, 1.00),
    # Online ingest: ratios only (raw ms are runner noise). Serving while
    # appending+reloading must stay in the same ballpark as steady state,
    # and a half-delta deployment must not cost multiples of a compacted
    # one to read through the overlay.
    ("part10_ingest_slowdown", "lower", 0.50, 1.00),
    ("part10_overlay_cost_ratio", "lower", 0.50, 0.50),
]

# Checks whose baseline holds only for a run on the same kernel: metric ->
# the metric naming the kernel. A run on another kernel (a CPU without
# AVX2 dispatches the 2-lane one) skips the check; the kernel it did run
# has its own check.
SAME_LANES = {"part9_ksg_brute_speedup": "part9_ksg_lanes"}


def load_metrics(path):
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"bench_check: cannot read '{path}': {error}", file=sys.stderr)
        sys.exit(2)
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        print(f"bench_check: '{path}' has no metrics object", file=sys.stderr)
        sys.exit(2)
    return metrics


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load_metrics(argv[1])
    current = load_metrics(argv[2])
    failures = skipped = 0
    for name, direction, tolerance, slack in CHECKS:
        if name not in baseline:
            print(f"FAIL {name}: missing from baseline '{argv[1]}' — "
                  f"regenerate the baseline with the current bench")
            failures += 1
            continue
        if name not in current:
            print(f"FAIL {name}: missing from current run '{argv[2]}'")
            failures += 1
            continue
        lanes = SAME_LANES.get(name)
        if lanes is not None and current.get(lanes) != baseline.get(lanes):
            print(f"n/a  {name}: run on {lanes} {current.get(lanes)}, "
                  f"baseline on {baseline.get(lanes)}")
            skipped += 1
            continue
        base, cur = baseline[name], current[name]
        if direction == "higher":
            bound = base * (1.0 - tolerance) - slack
            ok = cur >= bound
            detail = f"{cur:.4f} vs baseline {base:.4f} (floor {bound:.4f})"
        else:
            bound = base * (1.0 + tolerance) + slack
            ok = cur <= bound
            detail = f"{cur:.4f} vs baseline {base:.4f} (ceiling {bound:.4f})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"bench_check: {failures} regression(s) vs {argv[1]}")
        return 1
    print(f"bench_check: all {len(CHECKS) - skipped} applicable checks "
          f"passed vs {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
