#!/usr/bin/env python3
"""Builds the stackbench binary from the checkout and runs one workload.

Usage, from the root of the repository:

    python3 stackbench/run.py --workload fleet-lanes --seed 1 --seconds 20 \\
        --trace 0

The first call configures and builds the rrsched library and the benchmark
into .bench_build/ (Release); later calls only re-check the build. The
workload then runs in a fresh process with the seed on its command line.
Its report goes to standard output, ending with one JSON line:
{"correct", "attempted", "failed", "metrics"}. A failed build or run prints
no result and exits non-zero. `--workload all` (the default) runs the four
workloads one after another, each in its own process, and ends with a table
of every metric by workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "stackbench")
WORKLOADS = ("fleet-lanes", "fleet-churn", "dist-ckpt", "ratio-audit")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "stackbench",
                  "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def run_workload(args, workload):
    """Runs one workload in a fresh process; returns (stdout, result) or
    (None, None) after reporting the failure on stderr."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    if args.quick:
        command.append("--quick")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: %s timed out" % workload, file=sys.stderr)
        return None, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if proc.returncode != 0 or not valid:
        sys.stderr.write(proc.stdout)
        print("stackbench: %s failed (exit %d)" % (workload, proc.returncode),
              file=sys.stderr)
        return None, None
    return proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="corrupt one oracle answer (self-test)")
    args = parser.parse_args()

    if not build():
        print("stackbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        out, _ = run_workload(args, args.workload)
        if out is None:
            return 1
        sys.stdout.write(out)
        return 0

    results = {}
    for workload in WORKLOADS:
        out, result = run_workload(args, workload)
        if out is None:
            return 1
        sys.stdout.write(out)
        results[workload] = result
    print("\n%-40s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for name, metric in results[WORKLOADS[0]]["metrics"].items():
        print("%-40s" % ("%s [%s]" % (name, metric["unit"])) +
              "".join("%16.6g" % results[w]["metrics"][name]["value"]
                      for w in WORKLOADS))
    print("%-40s" % "correct (failed/attempted)" +
          "".join("%16s" % ("%s (%d/%d)" % (
              "yes" if results[w]["correct"] else "NO",
              results[w]["failed"], results[w]["attempted"]))
                   for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
