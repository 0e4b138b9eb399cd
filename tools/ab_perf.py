#!/usr/bin/env python3
"""Paired A/B runner for the repo benchmark (stackbench) and the gate binaries.

Usage, from anywhere inside a checkout:

    tools/ab_perf.py BASE --workload fleet-lanes [--workload fleet-churn] \\
        --pairs 10 --seconds 35 --seed0 1001 [--scratch DIR]
    tools/ab_perf.py BASE --gate bench_baseline [--gate bench_snapshot] \\
        --pairs 15 [--cpu C] [--scratch DIR]

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

It also compares the failed share of attempted ops on each side.

With --gate, each tree configures its own Release build of the named bench
binaries (tests, examples and tools off) in its `build-ab/` directory and
builds them. Pair i runs both binaries pinned with `taskset -c C`, the
parent first on even pairs, and writes each JSON report to the scratch
directory. For every cell and timed field — `*_per_sec` higher-better,
`*_ms` lower-better — the report prints each side's median and quartiles,
the change/parent ratio of the medians and the pairs the change lost (a tie
counts as no loss), then one verdict:

  slower  the change lost a one-sided sign test at 5% (at least 9 of 10 or
          12 of 15 pairs) and its median is worse than the parent's quartile
          on that side (below Q1 for `*_per_sec`, above Q3 for `*_ms`);
  ok      otherwise.

The deterministic fields (steady_allocs_per_round, snapshot_words) are
reported as equal or changed.

The exit status is 1 on any regression, higher failed share or `slower`
cell, 2 when a build or a run fails, and 0 otherwise.
"""

import argparse
import json
import math
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


# Gate-report fields whose values do not depend on timing.
DETERMINISTIC_FIELDS = ("steady_allocs_per_round", "snapshot_words")


def field_direction(field):
    """'higher' or 'lower' for a timed gate field, 'exact' for a
    deterministic one, None for fields the comparison ignores."""
    if field.endswith("_per_sec"):
        return "higher"
    if field.endswith("_ms"):
        return "lower"
    if field in DETERMINISTIC_FIELDS:
        return "exact"
    return None


def sign_test_threshold(pairs, alpha=0.05):
    """Fewest losses in `pairs` pairs that a fair coin reaches with
    probability at most alpha (one-sided sign test)."""
    tail = 0
    for losses in range(pairs, -1, -1):
        tail += math.comb(pairs, losses)
        if tail / 2 ** pairs > alpha:
            return losses + 1
    return 0


def pairs_lost(parent, change, better):
    """Pairs the change lost; equal values count as no loss."""
    return sum(1 for p, c in zip(parent, change) if better_than(p, c, better))


def gate_verdict(parent, change, better):
    """One timed field's verdict over paired runs (see the module
    docstring)."""
    p_q1, _, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    worse_than_quartile = (c_median < p_q1 if better == "higher"
                           else c_median > p_q3)
    lost = pairs_lost(parent, change, better)
    if lost >= sign_test_threshold(len(parent)) and worse_than_quartile:
        return "slower"
    return "ok"


def summarize_gate(gate, reports, out=sys.stdout):
    """Prints one gate binary's table from {side: [{cell: fields} per pair]};
    returns True when no cell is slower."""
    ok = True
    pairs = len(reports["parent"])
    out.write("\n%s: %d pairs, slower at >= %d lost\n" % (
        gate, pairs, sign_test_threshold(pairs)))
    out.write("%-28s %-24s %-30s %-30s %8s %6s  %s\n" % (
        "cell", "field", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "lost", "verdict"))
    for cell in sorted(reports["parent"][0]):
        for field in sorted(reports["parent"][0][cell]):
            better = field_direction(field)
            if better is None:
                continue
            values = {side: [run[cell][field] for run in reports[side]]
                      for side in SIDES}
            if better == "exact":
                same = values["parent"] == values["change"]
                out.write("%-28s %-24s %-30s %-30s %8s %6s  %s\n" % (
                    cell, field, values["parent"][0], values["change"][0],
                    "", "", "equal" if same else "changed"))
                continue
            cells = []
            for side in SIDES:
                q1, median, q3 = quartiles(values[side])
                cells.append("%.4g [%.4g, %.4g]" % (median, q1, q3))
            p_median = statistics.median(values["parent"])
            ratio = (statistics.median(values["change"]) / p_median
                     if p_median else 0.0)
            result = gate_verdict(values["parent"], values["change"], better)
            ok = ok and result != "slower"
            out.write("%-28s %-24s %-30s %-30s %7.3fx %3d/%-2d  %s\n" % (
                cell, field, cells[0], cells[1], ratio,
                pairs_lost(values["parent"], values["change"], better),
                pairs, result))
    return ok


def load_gate_report(path):
    """{cell name: {field: value}} of a gate binary's JSON report."""
    with open(path) as report:
        return {cell["name"]: {k: v for k, v in cell.items() if k != "name"}
                for cell in json.load(report)["benchmarks"]}


def build_gates(tree, gates):
    """Configures `tree`'s Release build-ab/ and builds `gates`; returns the
    binaries' directory, or None when the build fails."""
    build = os.path.join(tree, "build-ab")
    configure = ["cmake", "-S", tree, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release", "-DRRS_BUILD_TESTS=OFF",
                 "-DRRS_BUILD_EXAMPLES=OFF", "-DRRS_BUILD_TOOLS=OFF"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure,
                    ["cmake", "--build", build, "-j", jobs, "--target",
                     *gates]):
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return None
    return os.path.join(build, "bench")


def run_gates(args, trees, scratch):
    """Paired gate-binary runs; returns the exit status."""
    bins = {}
    for side in SIDES:
        bins[side] = build_gates(trees[side], args.gate)
        if bins[side] is None:
            print("%s: build of %s failed" % (side, " ".join(args.gate)))
            return 2
    reports_dir = os.path.join(scratch, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    print("pinned to cpu %d, %d pairs" % (args.cpu, args.pairs))
    ok = True
    for gate in args.gate:
        def run_side(side, pair, gate=gate):
            path = os.path.join(reports_dir,
                                "%s-%s-%d.json" % (gate, side, pair))
            proc = subprocess.run(
                ["taskset", "-c", str(args.cpu),
                 os.path.join(bins[side], gate), path],
                stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                raise RuntimeError("%s run of %s, pair %d failed" %
                                   (side, gate, pair))
            return load_gate_report(path)

        try:
            reports = run_pairs(args.pairs, 0, run_side)
        except RuntimeError as error:
            print(error)
            return 2
        ok = summarize_gate(gate, reports) and ok
    return 0 if ok else 1


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
    parser.add_argument("--workload", action="append", default=[],
                        help="stackbench workload to compare")
    parser.add_argument("--gate", action="append", default=[],
                        help="gate bench binary to compare (bench_baseline, "
                             "bench_snapshot, ...)")
    parser.add_argument("--cpu", type=int,
                        default=max(os.sched_getaffinity(0)),
                        help="CPU the gate binaries are pinned to")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--scratch", help="directory for the exported "
                        "parent tree (default: a new temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.workload and not args.gate:
        parser.error("name at least one --workload or --gate")

    with open(os.path.join(CHANGE_ROOT, "BENCHMARK.json")) as spec_file:
        bounds = load_bounds(json.load(spec_file))
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_perf-")
    trees = {"parent": export_base(args.base, scratch),
             "change": CHANGE_ROOT}
    print("parent %s in %s; change %s" % (args.base, trees["parent"],
                                          CHANGE_ROOT))

    status = run_gates(args, trees, scratch) if args.gate else 0
    if status == 2 or not args.workload:
        return status
    print("seeds %d..%d, %g s runs" % (args.seed0,
                                        args.seed0 + args.pairs - 1,
                                        args.seconds))
    ok = status == 0
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
