#!/usr/bin/env python3
"""Compares bench_e2e result files of a parent and a child commit.

    python3 bench/e2e/bench_compare.py --parent p1.json p2.json ... \
                                       --child c1.json c2.json ...

Each file is one run's rows (bench_e2e --out). Files pair up in the order
given: parent i with child i, so produce them alternating which side runs
first. For every workload x end-to-end metric it prints each side's median
and quartiles, the share of pairs the child wins (ties count for neither)
and a verdict under the bounds in BENCHMARK.json:

  improved    the child wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  regressed   the child's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's interquartile range exceeds the bound and not
              every child run beats every parent run
  no worse    otherwise

Per-layer metrics have no bound; they are listed with their medians only.
Exits 1 when a cell regressed or the child failed more operations than the
parent, 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    """{(workload, metric): [values]} and total failed, over the files."""
    values = {}
    failed = 0
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        failed += sum(run["failed"] for run in doc.get("runs", []))
        for row in doc["rows"]:
            if row["value"] is not None:
                values.setdefault((row["workload"], row["metric"]), []).append(
                    row["value"])
    return values, failed


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(parent, child, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, child))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(child)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(child)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = (min(child) > max(parent) if higher_is_better
                  else max(child) < min(parent))
    if win_frac >= 0.9 and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        return "improved", win_frac
    if worse_by > bound:
        return "regressed", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    return "no worse", win_frac


def fmt(v):
    return f"{v:.5g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--child", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.parent) != len(args.child):
        print("bench_compare: give as many child files as parent files",
              file=sys.stderr)
        return 2
    with open(args.benchmark) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    parent, parent_failed = load(args.parent)
    child, child_failed = load(args.child)

    print(f"{'workload':12} {'metric':32} {'parent med [q1, q3]':34} "
          f"{'child med [q1, q3]':34} {'change':>8} {'wins':>5}  verdict")
    regressed = 0
    unresolved = 0
    for key in sorted(set(parent) & set(child)):
        workload, metric = key
        if metric not in e2e and metric not in layers:
            continue
        p, c = parent[key], child[key]
        pm, cm = statistics.median(p), statistics.median(c)
        p1, p3 = quartiles(p)
        c1, c3 = quartiles(c)
        change = (cm - pm) / abs(pm) * 100 if pm else 0.0
        if metric in e2e:
            m = e2e[metric]
            word, win_frac = verdict(p, c, m["better"] == "higher", m["bound"])
            wins = f"{win_frac:.2f}"
        else:
            word, wins = "-", "-"
        regressed += word == "regressed"
        unresolved += word == "unresolved"
        print(f"{workload:12} {metric:32} "
              f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + ']':34} "
              f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + ']':34} "
              f"{change:7.1f}% {wins:>5}  {word}")
    print(f"failed operations: parent {parent_failed}, child {child_failed}")
    print(f"{regressed} regressed, {unresolved} unresolved")
    if child_failed > parent_failed:
        print("the child failed more operations than the parent")
        return 1
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
