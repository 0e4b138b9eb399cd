#!/usr/bin/env python3
"""Tests for tools/bench_compare.py (wired into ctest as a tier-1 test).

Written as unittest so it runs with the stock interpreter, but the cases are
pytest-compatible (pytest collects unittest.TestCase subclasses).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_COMPARE = os.path.join(TOOLS_DIR, "bench_compare.py")


def report(cells):
    return {"benchmarks": cells}


def cell(name, rounds=1e6, jobs=5e5, allocs=0.0, **extra):
    out = {
        "name": name,
        "rounds_per_sec": rounds,
        "jobs_per_sec": jobs,
        "steady_allocs_per_round": allocs,
    }
    out.update(extra)
    return out


def solver_cell(name, states=1e6, ms=50.0, **extra):
    """A bench_offline_solver-style cell: no steady_allocs_per_round."""
    out = {"name": name, "states_per_sec": states, "solve_ms": ms}
    out.update(extra)
    return out


def fleet_cell(name, sessions=1e4, rounds=1e6, allocs=0.0, **extra):
    """A bench_fleet-style cell: sessions/rounds throughput + alloc budget."""
    out = {
        "name": name,
        "sessions_per_sec": sessions,
        "rounds_per_sec": rounds,
        "steady_allocs_per_round": allocs,
    }
    out.update(extra)
    return out


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, baseline, current, *extra_args):
        """Writes both reports to temp files and runs bench_compare.py."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            with open(cur_path, "w") as f:
                json.dump(current, f)
            return subprocess.run(
                [sys.executable, BENCH_COMPARE, base_path, cur_path,
                 *extra_args],
                capture_output=True, text=True)

    def run_compare_raw(self, baseline_text, current_text):
        """Like run_compare, but writes raw bytes (or skips the baseline
        entirely when baseline_text is None) to exercise the report-loading
        error paths."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            cur_path = os.path.join(tmp, "current.json")
            if baseline_text is not None:
                with open(base_path, "w") as f:
                    f.write(baseline_text)
            with open(cur_path, "w") as f:
                f.write(current_text)
            return subprocess.run(
                [sys.executable, BENCH_COMPARE, base_path, cur_path],
                capture_output=True, text=True)

    def test_identical_reports_pass(self):
        r = report([cell("dlru/128c/8r"), cell("pipeline/32c/8r")])
        proc = self.run_compare(r, r)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("perf gate passed", proc.stdout)

    def test_missing_metric_fails_with_clear_message(self):
        base = report([cell("dlru/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        del cur["benchmarks"][0]["jobs_per_sec"]
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("metric 'jobs_per_sec' present in baseline but missing",
                      proc.stderr)
        self.assertNotIn("KeyError", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_missing_alloc_metric_fails_with_clear_message(self):
        base = report([cell("dlru/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        del cur["benchmarks"][0]["steady_allocs_per_round"]
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn(
            "metric 'steady_allocs_per_round' present in baseline but missing",
            proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_throughput_regression_fails(self):
        base = report([cell("dlru/128c/8r", rounds=1e6)])
        cur = report([cell("dlru/128c/8r", rounds=0.5e6)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("rounds_per_sec", proc.stderr)

    def test_regression_within_threshold_passes(self):
        base = report([cell("dlru/128c/8r", rounds=1e6, jobs=1e6)])
        cur = report([cell("dlru/128c/8r", rounds=0.9e6, jobs=0.9e6)])
        proc = self.run_compare(base, cur)  # default threshold 15%
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_alloc_budget_violation_fails(self):
        base = report([cell("dlru/128c/8r", allocs=0.0)])
        cur = report([cell("dlru/128c/8r", allocs=1.5)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("OVER BUDGET", proc.stdout)

    def test_cell_alloc_budget_overrides_the_flat_budget(self):
        # A cell stamped with its own budget is gated at it, not at the flat
        # --alloc-budget: 0.002 passes the flat 0.05 but not a budget of 0.
        base = report([cell("dlru/128c/8r", allocs=0.0),
                       cell("pipeline/32c/8r", allocs=0.0)])
        cur = report([cell("dlru/128c/8r", allocs=0.002, alloc_budget=0),
                      cell("pipeline/32c/8r", allocs=0.048)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("dlru/128c/8r: steady_allocs_per_round over budget",
                      proc.stderr)
        self.assertIn("budget 0.0000 allocs/round", proc.stderr)
        self.assertNotIn("pipeline/32c/8r", proc.stderr)
        cur = report([cell("dlru/128c/8r", allocs=0.0, alloc_budget=0),
                      cell("pipeline/32c/8r", allocs=0.048)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_cell_alloc_budget_non_numeric_fails_cleanly(self):
        base = report([cell("dlru/128c/8r", allocs=0.0)])
        cur = report([cell("dlru/128c/8r", allocs=0.0, alloc_budget="none")])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("alloc_budget 'none' is not a number", proc.stderr)

    def test_missing_cell_fails(self):
        base = report([cell("dlru/128c/8r"), cell("static/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from current report", proc.stderr)

    def test_new_cell_and_new_metrics_ignored(self):
        base = report([cell("dlru/128c/8r")])
        cur = report([
            cell("dlru/128c/8r", phase_drop_p50_ns=120.0),
            cell("stream/64c/8r"),
        ])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("new cell (not in baseline), skipped", proc.stdout)

    def test_baseline_without_metric_is_not_gated(self):
        # A baseline written before a metric existed must not fail the gate.
        base = report([cell("dlru/128c/8r")])
        del base["benchmarks"][0]["jobs_per_sec"]
        cur = report([cell("dlru/128c/8r")])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_states_per_sec_regression_fails(self):
        base = report([solver_cell("packed/m2/4c/h48", states=1e6)])
        cur = report([solver_cell("packed/m2/4c/h48", states=0.5e6)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("states_per_sec", proc.stderr)

    def test_solve_ms_increase_fails(self):
        # solve_ms is lower-is-better: a large *increase* is the regression.
        base = report([solver_cell("packed/m2/4c/h48", ms=50.0)])
        cur = report([solver_cell("packed/m2/4c/h48", ms=80.0)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("solve_ms", proc.stderr)

    def test_solve_ms_decrease_passes(self):
        # A big latency *improvement* must never trip the gate.
        base = report([solver_cell("packed/m2/4c/h48", ms=80.0)])
        cur = report([solver_cell("packed/m2/4c/h48", ms=20.0)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_sessions_per_sec_regression_fails(self):
        base = report([fleet_cell("fleet/10k/replay", sessions=1e4)])
        cur = report([fleet_cell("fleet/10k/replay", sessions=0.5e4)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("sessions_per_sec", proc.stderr)

    def test_fleet_alloc_budget_violation_fails(self):
        # The fleet bench carries the engine's zero-steady-allocation
        # contract: a warm pooled session allocating per round must trip the
        # same budget the engine bench is gated on.
        base = report([fleet_cell("fleet/1k/replay", allocs=0.0)])
        cur = report([fleet_cell("fleet/1k/replay", allocs=0.8)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("OVER BUDGET", proc.stdout)

    def test_fleet_informational_metrics_not_gated(self):
        # fresh_sessions_per_sec / pooled_speedup are informational: a
        # slower fresh path (= larger speedup) must never fail the gate.
        base = report([fleet_cell("sweep/pooled-vs-fresh",
                                  fresh_sessions_per_sec=5e3,
                                  pooled_speedup=2.0)])
        cur = report([fleet_cell("sweep/pooled-vs-fresh",
                                 fresh_sessions_per_sec=1e3,
                                 pooled_speedup=10.0)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_absent_baseline_fails_with_clear_message(self):
        # A missing bench/BENCH_*.json baseline must name the file and tell
        # the user how to regenerate it, not dump a Traceback.
        proc = self.run_compare_raw(None, json.dumps(report([cell("a")])))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("cannot read benchmark report", proc.stderr)
        self.assertIn("baseline.json", proc.stderr)
        self.assertIn("regenerate", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_truncated_baseline_fails_with_clear_message(self):
        # A bench run killed mid-write leaves a half-emitted JSON file.
        full = json.dumps(report([cell("dlru/128c/8r")]))
        proc = self.run_compare_raw(full[:len(full) // 2],
                                    json.dumps(report([cell("dlru/128c/8r")])))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("not valid JSON", proc.stderr)
        self.assertIn("truncated", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_wrong_shape_report_fails_with_clear_message(self):
        # Valid JSON of the wrong shape ("benchmarks" not a list of cells)
        # used to escape as a bare TypeError stack trace.
        proc = self.run_compare_raw(
            json.dumps({"benchmarks": {"dlru/128c/8r": 1.0}}),
            json.dumps(report([cell("dlru/128c/8r")])))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unexpected shape", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_empty_baseline_file_fails_with_clear_message(self):
        proc = self.run_compare_raw("", json.dumps(report([cell("a")])))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("not valid JSON", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_batched_speedup_at_least_2x_passes(self):
        # The batched fleet cell names its scalar twin via scalar_ref; the
        # ratio is taken within the current report, so a 2.2x batched row
        # passes the default 2.0x gate regardless of baseline values.
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=2.2e6,
                       scalar_ref="fleet/100k/capped", batch_width=16,
                       lane_occupancy=0.97),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("batched_speedup", proc.stdout)
        self.assertIn("2.20x", proc.stdout)

    def test_batched_speedup_below_2x_fails(self):
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=1.5e6,
                       scalar_ref="fleet/100k/capped", batch_width=16),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("BELOW MIN SPEEDUP", proc.stdout)
        self.assertIn("batched_speedup 1.50x", proc.stderr)

    def test_batched_speedup_custom_minimum(self):
        # --min-batched-speedup relaxes (or tightens) the default 2.0 gate.
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=1.5e6,
                       scalar_ref="fleet/100k/capped", batch_width=16),
        ])
        proc = self.run_compare(cur, cur, "--min-batched-speedup", "1.1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = self.run_compare(cur, cur, "--min-batched-speedup", "1.6")
        self.assertEqual(proc.returncode, 1)

    def test_batched_speedup_missing_scalar_ref_row_fails(self):
        # The gate needs both rows from the same run; a batched cell whose
        # scalar twin was dropped from the report must fail loudly, not with
        # a KeyError.
        cur = report([
            fleet_cell("fleet/100k/batched", rounds=2.5e6,
                       scalar_ref="fleet/100k/capped", batch_width=16),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("scalar_ref 'fleet/100k/capped' names a row missing",
                      proc.stderr)
        self.assertNotIn("KeyError", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_batched_speedup_gate_applies_to_new_cells(self):
        # Batched cells absent from the baseline are still speedup-gated:
        # the ratio is within-current, so "new cell, skipped" must not skip
        # the speedup check.
        base = report([fleet_cell("fleet/100k/capped", rounds=1e6)])
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=1.2e6,
                       scalar_ref="fleet/100k/capped", batch_width=16),
        ])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("batched_speedup", proc.stderr)

    def test_speedup_gate_field_overrides_default(self):
        # A cell stamping its own speedup_gate is judged against that floor,
        # not --min-batched-speedup: 1.5x passes a 1.25 per-cell gate that
        # the 2.0 default would fail, and fails a 1.8 per-cell gate even
        # when the flag is relaxed below it.
        def rows(gate):
            return report([
                fleet_cell("fleet/10k/replay", rounds=1e6),
                fleet_cell("fleet/10k/batched", rounds=1.5e6,
                           scalar_ref="fleet/10k/replay", batch_width=16,
                           speedup_gate=gate),
            ])
        proc = self.run_compare(rows(1.25), rows(1.25))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("min 1.25", proc.stdout)
        proc = self.run_compare(rows(1.8), rows(1.8),
                                "--min-batched-speedup", "1.0")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("below required 1.8", proc.stderr)

    def test_speedup_gate_non_numeric_fails_cleanly(self):
        cur = report([
            fleet_cell("fleet/10k/replay", rounds=1e6),
            fleet_cell("fleet/10k/batched", rounds=2.5e6,
                       scalar_ref="fleet/10k/replay", batch_width=16,
                       speedup_gate="fast"),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("speedup_gate 'fast' is not a number", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_regression_failure_prints_units_and_both_values(self):
        # A tripped throughput gate must name the unit and show both values
        # side by side, so the CI log alone tells the story.
        base = report([cell("dlru/128c/8r", rounds=1e6)])
        cur = report([cell("dlru/128c/8r", rounds=0.5e6)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rounds/s", proc.stderr)
        self.assertIn("current 500000.00", proc.stderr)
        self.assertIn("baseline 1000000.00", proc.stderr)

    def test_latency_regression_failure_prints_ms_unit(self):
        base = report([solver_cell("packed/m2/4c/h48", ms=50.0)])
        cur = report([solver_cell("packed/m2/4c/h48", ms=80.0)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("current 80.00 ms", proc.stderr)
        self.assertIn("baseline 50.00 ms", proc.stderr)

    def test_alloc_failure_prints_units_and_budget(self):
        base = report([cell("dlru/128c/8r", allocs=0.0)])
        cur = report([cell("dlru/128c/8r", allocs=1.5)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("current 1.5000 allocs/round", proc.stderr)
        self.assertIn("budget 0.0500 allocs/round", proc.stderr)

    def test_speedup_failure_prints_both_rates(self):
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=1.5e6,
                       scalar_ref="fleet/100k/capped", batch_width=16),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("current 1500000.00 rounds/s", proc.stderr)
        self.assertIn("scalar 1000000.00 rounds/s", proc.stderr)

    def test_obs_overhead_twin_gated_below_one(self):
        # The observability twin runs the same shape as its scalar_ref with
        # SLO tracking + exporter attached and stamps a speedup_gate below
        # 1.0 (e.g. 0.98 = at most 2% overhead). The same ratio machinery
        # must gate it: 1% overhead passes, 5% fails.
        def rows(obs_rounds):
            return report([
                fleet_cell("fleet/100k/capped", rounds=1e6),
                fleet_cell("fleet/100k/obs", rounds=obs_rounds,
                           scalar_ref="fleet/100k/capped",
                           speedup_gate=0.98),
            ])
        proc = self.run_compare(rows(0.99e6), rows(0.99e6))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = self.run_compare(rows(0.95e6), rows(0.95e6))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("below required 0.98", proc.stderr)

    def test_measured_speedup_takes_priority_over_rate_division(self):
        # A cell stamping measured_speedup (the bench's paired-window median
        # ratio) is gated on it, not on the division of the two best-of-N
        # rates: best-rate division says 0.90x here, but the paired ratio
        # 0.99x passes — and vice versa.
        passing = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/obs", rounds=0.90e6,
                       scalar_ref="fleet/100k/capped", speedup_gate=0.98,
                       measured_speedup=0.99),
        ])
        proc = self.run_compare(passing, passing)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        failing = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/obs", rounds=0.99e6,
                       scalar_ref="fleet/100k/capped", speedup_gate=0.98,
                       measured_speedup=0.90),
        ])
        proc = self.run_compare(failing, failing)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("below required 0.98", proc.stderr)

    def test_non_numeric_measured_speedup_fails_cleanly(self):
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/obs", rounds=1e6,
                       scalar_ref="fleet/100k/capped", speedup_gate=0.98,
                       measured_speedup="fast"),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("measured_speedup", proc.stderr)
        self.assertIn("not a number", proc.stderr)

    def test_snapshots_per_sec_regression_fails(self):
        # bench_snapshot's headline metric is gated like other throughputs.
        base = report([cell("snapshot/10k", snapshots_per_sec=2e4)])
        cur = report([cell("snapshot/10k", snapshots_per_sec=0.5e4)])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("snapshots_per_sec", proc.stderr)

    def dist_cell(self, name, workers, cpus, rounds, **extra):
        """A bench_fleet_distributed-style cell."""
        out = {
            "name": name,
            "workers": workers,
            "usable_cpus": cpus,
            "rounds_per_sec": rounds,
            "sessions_per_sec": rounds / 32.0,
        }
        out.update(extra)
        return out

    def test_scaling_gate_enforced_on_capable_machine_passes(self):
        # 8 usable cpus >= 2 workers: the gate is live, and 1.85x clears 1.7.
        cur = report([
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            self.dist_cell("dist/2workers", 2, 8, 1.85e6,
                           scaling_ref="dist/1worker", scaling_gate=1.7,
                           measured_scaling=1.85),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("scaling", proc.stdout)
        self.assertIn("1.85x", proc.stdout)

    def test_scaling_gate_enforced_on_capable_machine_fails(self):
        cur = report([
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            self.dist_cell("dist/2workers", 2, 8, 1.2e6,
                           scaling_ref="dist/1worker", scaling_gate=1.7,
                           measured_scaling=1.2),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("BELOW SCALING GATE", proc.stdout)
        self.assertIn("scaling 1.20x", proc.stderr)

    def test_scaling_gate_skipped_loudly_on_small_machine(self):
        # 1 usable cpu < 2 workers: processes timeshare one core, so the
        # scaling claim is untestable — skip with a loud message, never fail.
        cur = report([
            self.dist_cell("dist/1worker", 1, 1, 1e6),
            self.dist_cell("dist/2workers", 2, 1, 0.97e6,
                           scaling_ref="dist/1worker", scaling_gate=1.7,
                           measured_scaling=0.97),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("SKIPPED", proc.stdout)
        self.assertIn("1 usable cpus < 2 workers", proc.stdout)

    def test_scaling_gate_missing_ref_row_fails(self):
        cur = report([
            self.dist_cell("dist/2workers", 2, 8, 1.85e6,
                           scaling_ref="dist/1worker", scaling_gate=1.7),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("scaling_ref 'dist/1worker' names a row missing",
                      proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_scaling_gate_without_cpu_fields_fails_cleanly(self):
        # A cell claiming a scaling gate but not recording workers /
        # usable_cpus cannot be judged; that is a report bug, not a skip.
        cur = report([
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            {"name": "dist/2workers", "rounds_per_sec": 1.85e6,
             "scaling_ref": "dist/1worker", "scaling_gate": 1.7},
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("needs both 'workers' and 'usable_cpus'", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_scaling_without_gate_is_informational(self):
        # The 4-worker cell records scaling_ref + measured_scaling but no
        # scaling_gate: informational, never gated even at 0.5x.
        cur = report([
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            self.dist_cell("dist/4workers", 4, 8, 0.5e6,
                           scaling_ref="dist/1worker",
                           measured_scaling=0.5),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_scaling_gate_prefers_measured_scaling(self):
        # Same priority rule as the batched gate: the interleaved paired
        # estimate wins over dividing best-of-N rates.
        cur = report([
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            self.dist_cell("dist/2workers", 2, 8, 1.5e6,  # division: 1.5x
                           scaling_ref="dist/1worker", scaling_gate=1.7,
                           measured_scaling=1.8),         # paired: passes
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def mem_cell(self, name, bytes_per_tenant, **extra):
        """A bench_fleet memory-cell row: residency only, no throughput."""
        out = {"name": name, "bytes_per_tenant": bytes_per_tenant}
        out.update(extra)
        return out

    def test_memory_ratio_within_ceiling_passes(self):
        cur = report([
            self.mem_cell("fleet/mem/materialized", 14000.0),
            self.mem_cell("fleet/mem/streaming", 5000.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio=0.5),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("bytes_ratio", proc.stdout)
        self.assertIn("0.36x", proc.stdout)

    def test_memory_ratio_over_ceiling_fails_with_both_values(self):
        cur = report([
            self.mem_cell("fleet/mem/materialized", 14000.0),
            self.mem_cell("fleet/mem/streaming", 9800.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio=0.5),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("OVER MEMORY CEILING", proc.stdout)
        self.assertIn("ratio 0.70x", proc.stderr)
        self.assertIn("current 9800 bytes/tenant", proc.stderr)
        self.assertIn("14000 bytes/tenant", proc.stderr)

    def test_memory_gate_missing_mem_ref_row_fails(self):
        cur = report([
            self.mem_cell("fleet/mem/streaming", 5000.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio=0.5),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("mem_ref 'fleet/mem/materialized' names a row missing",
                      proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_memory_gate_missing_bytes_metric_fails_cleanly(self):
        cur = report([
            {"name": "fleet/mem/materialized"},
            self.mem_cell("fleet/mem/streaming", 5000.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio=0.5),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("needs bytes_per_tenant on both rows", proc.stderr)
        self.assertIn("fleet/mem/materialized", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_memory_gate_applies_to_new_cells(self):
        # Like the speedup gates, the memory gate is held within the current
        # report: cells absent from the baseline are still gated.
        base = report([fleet_cell("fleet/100k/capped")])
        cur = report([
            fleet_cell("fleet/100k/capped"),
            self.mem_cell("fleet/mem/materialized", 14000.0),
            self.mem_cell("fleet/mem/streaming", 9800.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio=0.5),
        ])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("OVER MEMORY CEILING", proc.stdout)

    def test_memory_gate_non_numeric_ratio_fails_cleanly(self):
        cur = report([
            self.mem_cell("fleet/mem/materialized", 14000.0),
            self.mem_cell("fleet/mem/streaming", 5000.0,
                          mem_ref="fleet/mem/materialized",
                          max_bytes_ratio="half"),
        ])
        proc = self.run_compare(cur, cur)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("max_bytes_ratio", proc.stderr)
        self.assertIn("not a number", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_shape_only_ignores_regressed_values(self):
        # The tier-1 smoke mode: a catastrophic "regression" (smoke numbers
        # are one-iteration noise) passes as long as the shape is intact.
        base = report([cell("dlru/128c/8r", rounds=1e6, allocs=0.0),
                       solver_cell("packed/m2/4c/h48", ms=50.0)])
        cur = report([cell("dlru/128c/8r", rounds=1.0, allocs=99.0),
                      solver_cell("packed/m2/4c/h48", ms=1e9)])
        proc = self.run_compare(base, cur, "--shape-only")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("shape check passed", proc.stdout)
        self.assertNotIn("REGRESSION", proc.stdout)

    def test_shape_only_still_fails_on_missing_cell(self):
        base = report([cell("dlru/128c/8r"), cell("static/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        proc = self.run_compare(base, cur, "--shape-only")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from current report", proc.stderr)
        self.assertIn("SHAPE CHECK FAILED", proc.stderr)

    def test_shape_only_still_fails_on_missing_metric(self):
        base = report([cell("dlru/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        del cur["benchmarks"][0]["jobs_per_sec"]
        proc = self.run_compare(base, cur, "--shape-only")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("metric 'jobs_per_sec' present in baseline but missing",
                      proc.stderr)

    def test_shape_only_still_fails_on_missing_alloc_metric(self):
        base = report([cell("dlru/128c/8r")])
        cur = report([cell("dlru/128c/8r")])
        del cur["benchmarks"][0]["steady_allocs_per_round"]
        proc = self.run_compare(base, cur, "--shape-only")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("steady_allocs_per_round", proc.stderr)

    def test_shape_only_skips_within_report_ratio_gates(self):
        # A smoke run's batched/scaling/memory ratios are noise; shape mode
        # must not judge them even when they would fail the live gates.
        cur = report([
            fleet_cell("fleet/100k/capped", rounds=1e6),
            fleet_cell("fleet/100k/batched", rounds=1.0,
                       scalar_ref="fleet/100k/capped", speedup_gate=2.0),
            self.dist_cell("dist/1worker", 1, 8, 1e6),
            self.dist_cell("dist/2workers", 2, 8, 1.0,
                           scaling_ref="dist/1worker", scaling_gate=1.7,
                           measured_scaling=0.1),
        ])
        proc = self.run_compare(cur, cur, "--shape-only")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("shape check passed", proc.stdout)

    def test_solver_cells_have_no_alloc_gate(self):
        # Solver cells record no steady_allocs_per_round; its absence from
        # both reports must not fail (the alloc gate is engine-bench-only).
        base = report([solver_cell("dp_ref/m2/4c/h48")])
        cur = report([solver_cell("dp_ref/m2/4c/h48")])
        proc = self.run_compare(base, cur)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("allocs/round", proc.stdout)


if __name__ == "__main__":
    unittest.main()
