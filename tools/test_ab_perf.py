#!/usr/bin/env python3
"""Tests for tools/ab_perf.py (wired into ctest as a tier-1 test).

Runs on canned results only: no tree is exported, built or run.
"""

import importlib.util
import io
import json
import os
import tempfile
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


class GateTest(unittest.TestCase):
    def test_sign_test_thresholds(self):
        self.assertEqual(ab_perf.sign_test_threshold(10), 9)
        self.assertEqual(ab_perf.sign_test_threshold(15), 12)
        # Too few pairs to ever reach 5%: every pair lost is not enough.
        self.assertEqual(ab_perf.sign_test_threshold(4), 5)

    def test_direction_by_suffix(self):
        self.assertEqual(ab_perf.field_direction("rounds_per_sec"), "higher")
        self.assertEqual(ab_perf.field_direction("snapshots_per_sec"),
                         "higher")
        self.assertEqual(ab_perf.field_direction("simulate_ms"), "lower")
        self.assertEqual(ab_perf.field_direction("snapshot_restore_ms"),
                         "lower")
        self.assertEqual(ab_perf.field_direction("steady_allocs_per_round"),
                         "exact")
        self.assertEqual(ab_perf.field_direction("snapshot_words"), "exact")
        self.assertIsNone(ab_perf.field_direction("phase_drop_p50_ns"))
        self.assertIsNone(ab_perf.field_direction("snapshot_overhead_pct"))

    def test_slower_needs_the_sign_test_and_the_quartile(self):
        parent = [100 + i for i in range(10)]  # Q1 102.25
        # Lost 9 of 10, median 101.5 below the parent's Q1: slower.
        change = [v - 4 for v in parent]
        change[0] = 200
        self.assertEqual(ab_perf.pairs_lost(parent, change, "higher"), 9)
        self.assertEqual(ab_perf.gate_verdict(parent, change, "higher"),
                         "slower")
        # Lost 8 of 10: the sign test does not fire.
        change[1] = 200
        self.assertEqual(ab_perf.gate_verdict(parent, change, "higher"), "ok")
        # Lost every pair, but by a hair: the median stays inside the
        # parent's quartiles.
        change = [v - 0.5 for v in parent]
        self.assertEqual(ab_perf.pairs_lost(parent, change, "higher"), 10)
        self.assertEqual(ab_perf.gate_verdict(parent, change, "higher"), "ok")

    def test_slower_at_fifteen_pairs_and_for_lower_is_better(self):
        parent = [10.0 + 0.1 * i for i in range(15)]  # Q3 11.05
        change = [v + 1.0 for v in parent]
        change[:4] = [1.0] * 4  # 11 of 15 lost: below the 12 needed
        self.assertEqual(ab_perf.pairs_lost(parent, change, "lower"), 11)
        self.assertEqual(ab_perf.gate_verdict(parent, change, "lower"), "ok")
        change[3] = parent[3] + 1.0  # 12 of 15
        self.assertEqual(ab_perf.gate_verdict(parent, change, "lower"),
                         "slower")
        # Ties are no loss.
        self.assertEqual(ab_perf.pairs_lost(parent, parent, "lower"), 0)

    def summarize(self, parent_rate, change_rate, change_allocs=0.0):
        def run(rate, allocs, i):
            return {"static/128c/8r": {
                "rounds_per_sec": rate + i, "steady_allocs_per_round": allocs,
                "alloc_budget": 0.0, "phase_drop_p50_ns": 5.0}}
        reports = {
            "parent": [run(parent_rate, 0.0, i) for i in range(10)],
            "change": [run(change_rate, change_allocs, i) for i in range(10)]}
        out = io.StringIO()
        ok = ab_perf.summarize_gate("bench_baseline", reports, out)
        return ok, out.getvalue()

    def test_gate_table_reports_quartiles_ratio_losses_and_exact_fields(self):
        ok, text = self.summarize(100, 50)
        self.assertFalse(ok)
        self.assertIn("10 pairs, slower at >= 9 lost", text)
        self.assertIn("104.5 [102.2, 106.8]", text)
        self.assertIn("0.522x", text)
        self.assertIn(" 10/10  slower", text)
        self.assertIn("equal", text)
        self.assertNotIn("phase_drop_p50_ns", text)
        self.assertNotIn("alloc_budget", text)
        ok, text = self.summarize(100, 100, change_allocs=0.0015)
        self.assertTrue(ok)
        self.assertIn("  0/10  ok", text)
        self.assertIn("changed", text)

    def test_gate_reports_load_by_cell_name(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w") as f:
                json.dump({"benchmarks": [
                    {"name": "a", "rounds_per_sec": 1.0},
                    {"name": "b", "snapshot_words": 569}]}, f)
            self.assertEqual(ab_perf.load_gate_report(path), {
                "a": {"rounds_per_sec": 1.0}, "b": {"snapshot_words": 569}})


if __name__ == "__main__":
    unittest.main()
