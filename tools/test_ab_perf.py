#!/usr/bin/env python3
"""Tests for tools/ab_perf.py (wired into ctest as a tier-1 test).

Runs on canned results only: no tree is exported, built or run.
"""

import importlib.util
import io
import json
import os
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "ab_perf", os.path.join(TOOLS_DIR, "ab_perf.py"))
ab_perf = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_perf)

BOUNDS = {"rounds_per_s": ("higher", 0.25), "op_ms_p50": ("lower", 0.25)}


def result(rounds, op_ms, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"rounds_per_s": {"value": rounds, "unit": "1/s"},
                        "op_ms_p50": {"value": op_ms, "unit": "ms"}}}


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_in_ten_wins_and_a_gap_past_the_iqr(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [v + 20 for v in parent]
        self.assertEqual(ab_perf.verdict(parent, change, "higher", 0.25),
                         "gain")
        # 8 wins in 10 is not enough, however large the gap.
        change[0] = change[1] = 50
        self.assertEqual(ab_perf.pair_wins(parent, change, "higher"), 8)
        self.assertEqual(ab_perf.verdict(parent, change, "higher", 0.25),
                         "no change")

    def test_gain_needs_the_gap_to_exceed_the_parent_iqr(self):
        parent = [90, 110, 90, 110, 90, 110, 90, 110, 90, 110]
        change = [v + 1 for v in parent]  # wins every pair by a hair
        self.assertEqual(ab_perf.pair_wins(parent, change, "higher"), 10)
        self.assertEqual(ab_perf.verdict(parent, change, "higher", 0.25),
                         "no change")

    def test_gain_for_a_lower_is_better_metric(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0]
        change = [8.0, 8.1, 7.9, 8.2, 8.0]
        self.assertEqual(ab_perf.verdict(parent, change, "lower", 0.25),
                         "gain")
        self.assertEqual(ab_perf.verdict(change, parent, "lower", 0.25),
                         "no change")

    def test_regression_past_the_bound(self):
        parent = [100.0] * 6
        self.assertEqual(
            ab_perf.verdict(parent, [74.0] * 6, "higher", 0.25), "regression")
        self.assertEqual(
            ab_perf.verdict(parent, [76.0] * 6, "higher", 0.25), "no change")
        self.assertEqual(
            ab_perf.verdict([10.0] * 6, [12.6] * 6, "lower", 0.25),
            "regression")

    def test_unresolved_when_the_parent_spread_exceeds_the_bound(self):
        parent = [60, 140, 60, 140, 60, 140]
        change = [70, 130, 70, 130, 70, 130]
        self.assertEqual(ab_perf.verdict(parent, change, "higher", 0.25),
                         "unresolved")
        # Unless every change run beats every parent run. The gap (41.5)
        # is still inside the parent's IQR (80), so it is no gain either.
        change = [141, 142, 141, 142, 141, 142]
        self.assertEqual(ab_perf.verdict(parent, change, "higher", 0.25),
                         "no change")

    def test_ties_count_for_neither_side(self):
        parent = [100, 100, 100, 100]
        change = [100, 100, 101, 99]
        self.assertEqual(ab_perf.pair_wins(parent, change, "higher"), 1)
        self.assertEqual(ab_perf.pair_wins(change, parent, "higher"), 1)
        self.assertEqual(ab_perf.pair_wins(parent, change, "lower"), 1)
        self.assertEqual(ab_perf.verdict(parent, parent, "higher", 0.25),
                         "no change")


class RunnerTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        calls = []

        def run_side(side, seed):
            calls.append((side, seed))
            return side

        results = ab_perf.run_pairs(4, 500, run_side)
        self.assertEqual(calls, [
            ("parent", 500), ("change", 500), ("change", 501),
            ("parent", 501), ("parent", 502), ("change", 502),
            ("change", 503), ("parent", 503)])
        self.assertEqual(results, {"parent": ["parent"] * 4,
                                   "change": ["change"] * 4})

    def test_bounds_come_from_the_benchmark_spec(self):
        spec = {"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.1},
            {"name": "rounds_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25}],
            "per_layer": [{"name": "fleet.ticks", "unit": "count",
                           "better": "lower"}]}
        self.assertEqual(ab_perf.load_bounds(spec), {
            "setup_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1),
            "rounds_per_s": ("higher", 0.25)})
        spec["end_to_end"][0]["better"] = "faster"
        with self.assertRaises(ValueError):
            ab_perf.load_bounds(spec)

    def test_the_repo_benchmark_spec_loads(self):
        with open(os.path.join(ab_perf.CHANGE_ROOT, "BENCHMARK.json")) as f:
            bounds = ab_perf.load_bounds(json.load(f))
        self.assertEqual(bounds["peak_rss_mb"], ("lower", 0.1))
        self.assertEqual(bounds["rounds_per_s"], ("higher", 0.25))


class SummaryTest(unittest.TestCase):
    def summarize(self, parent, change):
        out = io.StringIO()
        ok = ab_perf.summarize("fleet-lanes",
                               {"parent": parent, "change": change}, BOUNDS,
                               out)
        return ok, out.getvalue()

    def test_table_reports_medians_quartiles_ratio_and_wins(self):
        parent = [result(100 + i, 10.0) for i in range(10)]
        change = [result(150 + i, 8.0) for i in range(10)]
        ok, text = self.summarize(parent, change)
        self.assertTrue(ok)
        self.assertIn("104.5 [102.2, 106.8]", text)
        self.assertIn("154.5 [152.2, 156.8]", text)
        self.assertIn("1.478x", text)
        self.assertIn(" 10/10  gain", text)
        self.assertIn("failed ops: parent 0/1000, change 0/1000", text)

    def test_regression_or_a_higher_failed_share_is_not_ok(self):
        parent = [result(100, 10.0) for _ in range(4)]
        ok, text = self.summarize(parent, [result(50, 10.0)] * 4)
        self.assertFalse(ok)
        self.assertIn("regression", text)
        ok, text = self.summarize(parent, [result(100, 10.0, failed=1)] * 4)
        self.assertFalse(ok)
        self.assertIn("failed share rose", text)
        ok, _ = self.summarize(parent, [result(100, 10.0)] * 4)
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
