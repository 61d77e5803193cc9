#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs against BENCHMARK.json's bounds.

    python3 e2ebench/e2e_compare.py A.jsonl B.jsonl [--benchmark FILE]

A and B are files written by `e2ebench/run.py --record FILE`: A holds
the baseline runs (the parent commit), B the runs to judge. Only
untraced runs count. For every (workload, end-to-end metric) pair the
script prints each set's median and quartiles and one verdict:

  regressed   B's median is worse than A's by more than the bound;
  unresolved  otherwise, when the spread of either set (distance
              between its quartiles over its median) is wider than the
              bound, unless every B run reads better than every A run;
  unchanged   otherwise.

A summary row per workload follows. Exits 1 when any pair regressed.
"""

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS = ("unchanged", "unresolved", "regressed")  # by severity


def load(path):
    """workload -> list of metric dicts, untraced runs only."""
    runs = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    runs[rec["workload"]].append(rec["result"]["metrics"])
    return runs


def summary(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """Verdict and B's relative change (positive = worse) for one pair."""
    a1, am, a3 = summary(a)
    b1, bm, b3 = summary(b)
    worse = (bm - am) / abs(am) if am else 0.0
    if better == "higher":
        worse = -worse
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worse > bound:
        return "regressed", worse
    if spread > bound and not all_better:
        return "unresolved", worse
    return "unchanged", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline runs (run.py --record)")
    ap.add_argument("b", help="runs to judge (run.py --record)")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load(args.a), load(args.b)

    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        a_set, b_set = a_runs.get(workload, []), b_runs.get(workload, [])
        print("%s  (A: %d runs, B: %d runs)" % (workload, len(a_set),
                                                 len(b_set)))
        if not a_set or not b_set:
            print("  missing on one side")
            rows.append((workload, collections.Counter(), "unresolved"))
            continue
        print("  %-16s %-30s %-30s %8s %6s  %s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "worse",
            "bound", "verdict"))
        counts = collections.Counter()
        for m in metrics:
            name = m["name"]
            a = [r[name]["value"] for r in a_set if name in r]
            b = [r[name]["value"] for r in b_set if name in r]
            if not a or not b:
                counts["unresolved"] += 1
                print("  %-16s missing" % name)
                continue
            v, worse = verdict(a, b, m["better"], m["bound"])
            counts[v] += 1
            fmt = lambda s: "%.4g [%.4g, %.4g]" % (s[1], s[0], s[2])
            print("  %-16s %-30s %-30s %+7.1f%% %5.0f%%  %s" % (
                name, fmt(summary(a)), fmt(summary(b)), 100 * worse,
                100 * m["bound"], v))
        worst = max(counts, key=VERDICTS.index) if counts else "unresolved"
        rows.append((workload, counts, worst))
        print()

    print("%-16s %9s %10s %9s  %s" % ("workload", "unchanged", "unresolved",
                                      "regressed", "verdict"))
    for workload, counts, worst in rows:
        print("%-16s %9d %10d %9d  %s" % (workload, counts["unchanged"],
                                           counts["unresolved"],
                                           counts["regressed"], worst))
    sys.exit(1 if any(w == "regressed" for _, _, w in rows) else 0)


if __name__ == "__main__":
    main()
