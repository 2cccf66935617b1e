#!/usr/bin/env python3
"""Compare benchmark runs of a parent and a change commit.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files that `run.py --out FILE` wrote, one per
run.  Take the runs in alternating order (parent, change, change, parent,
...) with the same seeds and --seconds on both sides.  For every
end-to-end metric of BENCHMARK.json and every workload, the runs are
paired in the order they were taken and judged by this rule:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              distance between the parent's quartiles;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, unless every change run beats every
              parent run;
  same        none of the above.

With fewer than MIN_PAIRS pairs every verdict is "unresolved": the rule
needs at least ten alternating pairs.

Traced runs, when both sides have them, add a per-layer table of medians.
The exit code is 1 when any pair regresses or any run failed a check.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.append(json.load(f))
    return sorted(runs, key=lambda r: r["started_at"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric):
    direction, bound = metric["better"], metric["bound"]
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    spread = (q3 - q1) / pm if pm else 0.0
    worse = (cm - pm) if direction == "lower" else (pm - cm)
    if len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= 0.9 * len(pairs) and better(cm, pm, direction) \
            and abs(cm - pm) > q3 - q1:
        verdict = "gain"
    elif spread > bound and not all(better(c, p, direction)
                                    for c in change for p in parent):
        verdict = "unresolved"
    elif worse > bound * abs(pm):
        verdict = "regression"
    else:
        verdict = "same"
    return {"parent": pm, "parent_q": (q1, q3), "change": cm,
            "change_q": quartiles(change), "wins": wins,
            "pairs": len(pairs), "spread": spread, "verdict": verdict}


def interleaved(parent, change):
    """Did the two sides alternate in time (no side ran all its runs in
    one block)?"""
    order = sorted([(r["started_at"], "p") for r in parent] +
                   [(r["started_at"], "c") for r in change])
    switches = sum(1 for a, b in zip(order, order[1:]) if a[1] != b[1])
    return switches >= min(len(parent), len(change))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)

    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            if not r["correct"]:
                print("%s run %s seed %d failed: %s" % (
                    side, r["workload"], r["seed"], "; ".join(r["failures"])))
                status = 1

    print("%-14s %-14s %12s %12s %7s %7s  %s" % (
        "workload", "metric", "parent", "change", "wins", "spread",
        "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == w and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == w and not r["trace"]]
        if not p_runs or not c_runs:
            continue
        if not interleaved(p_runs, c_runs):
            print("warning: %s runs were not taken in alternating order" % w)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            res = judge([r["end_to_end"][name] for r in p_runs],
                        [r["end_to_end"][name] for r in c_runs], metric)
            print("%-14s %-14s %12.6g %12.6g %3d/%-3d %6.1f%%  %s" % (
                w, name, res["parent"], res["change"], res["wins"],
                res["pairs"], 100 * res["spread"], res["verdict"]))
            if res["verdict"] == "regression":
                status = 1

        p_tr = [r for r in parent if r["workload"] == w and r["trace"]]
        c_tr = [r for r in change if r["workload"] == w and r["trace"]]
        if p_tr and c_tr:
            print("  per-layer medians on %s (parent -> change):" % w)
            for metric in spec["per_layer"]:
                name = metric["name"]
                pm = statistics.median(r["per_layer"][name] for r in p_tr)
                cm = statistics.median(r["per_layer"][name] for r in c_tr)
                if pm or cm:
                    print("    %-36s %12.6g -> %-12.6g %s" % (
                        name, pm, cm, metric["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
