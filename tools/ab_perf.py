#!/usr/bin/env python3
"""Paired A/B runner for the repo benchmark (stackbench).

Usage, from anywhere inside a checkout:

    tools/ab_perf.py BASE --workload fleet-lanes [--workload fleet-churn] \\
        --pairs 10 --seconds 35 --seed0 1001 [--scratch DIR]

BASE is any git revision. It is exported with `git archive` into a scratch
directory (a fresh temporary one unless --scratch names one to reuse), and
the checkout holding this script is the change. Each tree builds and runs its
own benchmark through its own `stackbench/run.py`; a tiny `--quick` run per
tree does the build before any timed run.

Pair i runs both trees at seed SEED0 + i, the parent first on even pairs and
the change first on odd ones, and reads the final JSON line of each run.
Every end-to-end metric's direction (`better`) and `bound` come from the
change's BENCHMARK.json. For each workload and metric the report prints each
side's median and quartiles, the change/parent ratio of the medians, and the
number of pairs the change won (a tie counts for neither side), then one
verdict:

  gain        the change won at least 9 of every 10 pairs, and its median is
              better than the parent's by more than the parent's
              interquartile range;
  regression  the change's median is worse than the parent's by more than the
              bound (a fraction of the parent's median);
  unresolved  the parent's interquartile range, as a fraction of its median,
              is wider than the bound, and not every change run beats every
              parent run;
  no change   otherwise.

It also compares the failed share of attempted ops on each side. The exit
status is 1 on any regression or a higher failed share for the change, 2 when
a build or a run fails, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
CHANGE_ROOT = os.path.dirname(TOOLS_DIR)
SIDES = ("parent", "change")


def load_bounds(spec):
    """{metric: (better, bound)} for BENCHMARK.json's end-to-end metrics."""
    bounds = {}
    for metric in spec["end_to_end"]:
        if metric["better"] not in ("higher", "lower"):
            raise ValueError("metric %s: better must be higher or lower, "
                             "not %r" % (metric["name"], metric["better"]))
        bounds[metric["name"]] = (metric["better"], float(metric["bound"]))
    return bounds


def run_order(pair):
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_pairs(pairs, seed0, run_side):
    """Runs `pairs` alternating pairs; run_side(side, seed) returns one run's
    result. Returns {side: [result of pair 0, pair 1, ...]}."""
    results = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in run_order(pair):
            results[side].append(run_side(side, seed0 + pair))
    return results


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better_than(a, b, better):
    return a > b if better == "higher" else a < b


def pair_wins(parent, change, better):
    """Pairs the change won; equal values count for neither side."""
    return sum(1 for p, c in zip(parent, change) if better_than(c, p, better))


def verdict(parent, change, better, bound):
    """One metric's verdict over paired runs (see the module docstring)."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gap = c_median - p_median if better == "higher" else p_median - c_median
    if 10 * pair_wins(parent, change, better) >= 9 * len(parent) and \
            gap > p_q3 - p_q1:
        return "gain"
    if -gap > bound * abs(p_median):
        return "regression"
    if p_q3 - p_q1 > bound * abs(p_median):
        worst_change = min(change) if better == "higher" else max(change)
        best_parent = max(parent) if better == "higher" else min(parent)
        if not better_than(worst_change, best_parent, better):
            return "unresolved"
    return "no change"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def summarize(workload, results, bounds, out=sys.stdout):
    """Prints one workload's table; returns True when nothing regressed."""
    ok = True
    pairs = len(results["parent"])
    out.write("\n%s: %d pairs\n" % (workload, pairs))
    out.write("%-14s %-6s %-32s %-32s %8s %6s  %s\n" % (
        "metric", "better", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "won", "verdict"))
    for name, (better, bound) in bounds.items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        cells = []
        for values in (parent, change):
            q1, median, q3 = quartiles(values)
            cells.append("%.4g [%.4g, %.4g]" % (median, q1, q3))
        p_median = statistics.median(parent)
        ratio = statistics.median(change) / p_median if p_median else 0.0
        result = verdict(parent, change, better, bound)
        ok = ok and result != "regression"
        out.write("%-14s %-6s %-32s %-32s %7.3fx %3d/%-2d  %s\n" % (
            name, better, cells[0], cells[1], ratio,
            pair_wins(parent, change, better), pairs, result))
    shares = {side: failed_share(results[side]) for side in SIDES}
    out.write("failed ops: parent %d/%d, change %d/%d\n" % (
        shares["parent"] + shares["change"]))
    rate = {side: shares[side][0] / max(1, shares[side][1]) for side in SIDES}
    if rate["change"] > rate["parent"]:
        out.write("failed share rose\n")
        ok = False
    return ok


def stackbench(tree, workload, seed, seconds, quick=False):
    """One run of `tree`'s benchmark; returns its result dict or None."""
    command = [sys.executable, os.path.join(tree, "stackbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    if quick:
        command.append("--quick")
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return None


def export_base(base, scratch):
    """`git archive` of BASE into scratch/base; returns the tree's path."""
    tree = os.path.join(scratch, "base")
    os.makedirs(tree, exist_ok=True)
    archive = subprocess.run(["git", "-C", CHANGE_ROOT, "archive", base],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout,
                   check=True)
    return tree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the parent")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--scratch", help="directory for the exported "
                        "parent tree (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(CHANGE_ROOT, "BENCHMARK.json")) as spec_file:
        bounds = load_bounds(json.load(spec_file))
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_perf-")
    trees = {"parent": export_base(args.base, scratch),
             "change": CHANGE_ROOT}
    print("parent %s in %s; change %s" % (args.base, trees["parent"],
                                          CHANGE_ROOT))

    print("seeds %d..%d, %g s runs" % (args.seed0,
                                        args.seed0 + args.pairs - 1,
                                        args.seconds))
    ok = True
    for workload in args.workload:
        for side in SIDES:
            if stackbench(trees[side], workload, args.seed0, 0.2,
                          quick=True) is None:
                print("%s: %s build or quick run failed" % (workload, side))
                return 2

        def run_side(side, seed, workload=workload):
            result = stackbench(trees[side], workload, seed, args.seconds)
            if result is None:
                raise RuntimeError("%s run of %s at seed %d failed" %
                                   (side, workload, seed))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print("  %s seed %d %s: %s" % (workload, seed, side,
                                           json.dumps(values)), flush=True)
            return result

        try:
            results = run_pairs(args.pairs, args.seed0, run_side)
        except RuntimeError as error:
            print(error)
            return 2
        ok = summarize(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
