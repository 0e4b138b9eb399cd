#!/usr/bin/env python3
"""The benchmark's own tests.

They show that a corrupted oracle answer is counted as a failed op, that a
tiny run of each workload emits every metric BENCHMARK.json names (with its
unit), that op times on the CPU clock read at most the wall clock, that the
traced runs keep the lane-occupancy split the two fleet workloads exist for,
and that the benchmark gives no result without the sources it measures or on
fewer than 3 usable CPUs. Run from the repository root:

    python3 stackbench/test_stackbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace=0, extra=(), cwd=ROOT, preexec_fn=None):
    """One tiny run (--quick); returns (exit code, stdout, parsed result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "stackbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        preexec_fn=preexec_fn)
    result = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return proc.returncode, proc.stdout, result


class TinyRuns(unittest.TestCase):
    traced = {}

    @classmethod
    def traced_result(cls, workload):
        if workload not in cls.traced:
            cls.traced[workload] = run(workload, trace=1)
        return cls.traced[workload]

    def check_metrics(self, result, names):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in names:
            self.assertIn(metric["name"], result["metrics"])
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = run(workload)
                self.assertEqual(code, 0, out)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in SPEC["end_to_end"]})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_cpu_clock_reads_at_most_the_wall_clock(self):
        # An op's time on the CPU clock is its busiest thread's CPU time,
        # which cannot exceed the op's wall time, and is most of it unless
        # the host steals most of the CPUs.
        code, out, result = run("fleet-lanes")
        self.assertEqual(code, 0, out)
        self.assertIn("clock: CPU time of the busiest thread", out)
        wall_line = next(line for line in out.split("\n")
                         if line.startswith("wall clock, not compared: "))
        items = wall_line.split(": ", 1)[1].split(", ")
        wall = {name: float(value)
                for name, value in (item.split(" ") for item in items)}
        for name in ("op_ms_p50", "op_ms_p90"):
            cpu = result["metrics"][name]["value"]
            self.assertLessEqual(cpu, 1.02 * wall[name], name)
            self.assertGreater(cpu, 0.3 * wall[name], name)

    def test_traced_run_emits_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = self.traced_result(workload)
                self.assertEqual(code, 0, out)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertIn("ledger:", out)
                self.assertIn("self time per layer", out)

    def test_lane_occupancy_splits_the_fleet_workloads(self):
        _, _, lanes = self.traced_result("fleet-lanes")
        _, _, churn = self.traced_result("fleet-churn")
        self.assertGreaterEqual(
            lanes["metrics"]["fleet.lane_occupancy"]["value"], 0.9)
        self.assertLessEqual(
            churn["metrics"]["fleet.lane_occupancy"]["value"], 0.25)

    def test_corrupted_oracle_answer_counts_as_failed_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = run(workload,
                                        extra=("--corrupt-oracle",))
                self.assertEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["failed"], result["attempted"])

    def test_workloads_are_the_ones_the_benchmark_names(self):
        for workload in SPEC["workloads"]:
            self.assertIn(workload["name"], WORKLOADS)

    def test_gives_no_result_on_fewer_than_3_usable_cpus(self):
        one_cpu = {min(os.sched_getaffinity(0))}
        code, out, _ = run(WORKLOADS[0],
                           preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)

    def test_refuses_to_run_without_the_measured_sources(self):
        stripped = os.path.join(ROOT, ".bench_build", "stripped-checkout")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(stripped, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, out, _ = run(WORKLOADS[0], cwd=stripped)
            self.assertNotEqual(code, 0)
            self.assertNotIn('"correct"', out)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
