#!/usr/bin/env python3
"""Perf-regression gate: compare a BENCH_engine.json against the baseline.

Usage:
    bench_compare.py BASELINE CURRENT [--threshold 0.15] [--alloc-budget 0.05]
                     [--shape-only]

With --shape-only only the report *shape* is validated — every baseline cell
must appear in CURRENT and record every metric the baseline cell records —
and no value is gated. This is the tier-1 smoke mode: the bench binaries run
once under RRS_BENCH_SMOKE=1 (timing numbers are meaningless), and the smoke
still catches a cell that crashes, is dropped, or silently loses a gated
metric long before the nightly/perf run would.

Fails (exit 1) when any benchmark cell in CURRENT:
  * is missing relative to BASELINE,
  * lacks a metric that the BASELINE cell records (a gated metric silently
    disappearing from the report must fail loudly, not with a KeyError),
  * regresses a higher-is-better throughput metric (rounds_per_sec,
    jobs_per_sec, sessions_per_sec, states_per_sec, snapshots_per_sec) by
    more than --threshold
    (fraction; 0.15 = 15% slower than baseline),
  * regresses a lower-is-better latency metric (solve_ms) by more than
    --threshold (an *increase* beyond the threshold fails), or
  * exceeds the steady-state allocation budget (allocations per round in
    steady state; gated only for cells whose baseline records
    steady_allocs_per_round — the engine bench does, the solver bench has no
    per-round allocation contract). The budget is the current cell's own
    "alloc_budget" field when present (the bench binary stamps 0 on cells
    whose contract is exact), falling back to --alloc-budget, or
  * is a batched fleet cell (records "scalar_ref": the name of its scalar
    twin in the same report) whose rounds_per_sec falls below its required
    speedup times the scalar twin's rounds_per_sec. The required speedup is
    the cell's own "speedup_gate" field when present (the bench binary
    stamps per-cell floors: the headline cell carries the paper target, the
    small-fleet cells a regression floor), falling back to
    --min-batched-speedup. The ratio is computed within CURRENT (both rows
    measured on the same machine in the same run), so it gates the
    lane-parallel engine's relative win, not absolute machine speed. When
    the cell records measured_speedup (the bench's median ratio over paired
    interleaved windows), the gate uses it instead of dividing the two
    best-of-N rates — the paired estimate is much more stable on noisy
    machines, which tight floors (the obs twin's 0.98) need. A scalar_ref
    naming a row absent from the report, or either row lacking
    rounds_per_sec, fails with a clear message, or
  * is a distributed fleet cell (records "scaling_ref": the name of its
    fewer-worker twin, plus "scaling_gate": the required aggregate
    rounds_per_sec ratio — the linear-scaling claim). The gate is enforced
    only when the current report's "usable_cpus" can host the cell's
    "workers" (usable_cpus >= workers): worker processes timesharing one
    core cannot scale no matter how good the code is, so on small machines
    the gate is SKIPPED with a loud message instead of failing on physics.
    Like the batched gate, the ratio prefers the bench's interleaved
    "measured_scaling" estimate over dividing the two best-of-N rates, or
  * is a memory cell (records "mem_ref": the name of its materialized twin
    in the same report, plus "max_bytes_ratio": the required ceiling) whose
    bytes_per_tenant exceeds max_bytes_ratio times the twin's. Like the
    speedup gates, the ratio is held within CURRENT — both rows measure
    peak heap residency in the same run on the same allocator — so it gates
    the streaming representation's memory win, not absolute allocator
    behavior. A mem_ref naming an absent row, or either row lacking
    bytes_per_tenant, fails with a clear message.

Metrics present only in CURRENT (e.g. the informational phase_*_p50_ns
breakdown) are ignored, so reports can grow new columns without a baseline
update.

Improvements and new cells never fail; the script prints a per-cell report
either way. Update the checked-in baseline by copying a fresh report over
bench/BENCH_baseline.json when a deliberate perf change lands.
"""

import argparse
import json
import sys


class BenchReportError(Exception):
    """A benchmark report that cannot be read or parsed (clear message)."""


def load_cells(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        raise BenchReportError(
            f"cannot read benchmark report '{path}': {e}. If this is the "
            f"checked-in baseline, regenerate it by running the bench binary "
            f"and committing its JSON output.")
    except json.JSONDecodeError as e:
        raise BenchReportError(
            f"benchmark report '{path}' is not valid JSON (truncated or "
            f"interrupted bench run?): {e}")
    try:
        return {cell["name"]: cell for cell in report["benchmarks"]}
    except (KeyError, TypeError) as e:
        raise BenchReportError(
            f"benchmark report '{path}' has unexpected shape, expected "
            f'{{"benchmarks": [{{"name": ..., <metrics>...}}]}}: '
            f"{type(e).__name__}: {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max allowed fractional throughput regression")
    parser.add_argument("--alloc-budget", type=float, default=0.05,
                        help="max steady-state allocations per round; a "
                             "cell's own alloc_budget field overrides this "
                             "default")
    parser.add_argument("--min-batched-speedup", type=float, default=2.0,
                        help="min rounds_per_sec ratio a batched fleet cell "
                             "must hold over its scalar_ref row (same "
                             "report); a cell's own speedup_gate field "
                             "overrides this default")
    parser.add_argument("--shape-only", action="store_true",
                        help="validate cell/metric presence only, gate no "
                             "values (tier-1 smoke mode for RRS_BENCH_SMOKE "
                             "reports)")
    args = parser.parse_args()

    try:
        baseline = load_cells(args.baseline)
        current = load_cells(args.current)
    except BenchReportError as e:
        print(e, file=sys.stderr)
        return 1

    # metric -> +1 (higher is better) or -1 (lower is better). Only metrics
    # listed here are gated; anything else in a report is informational.
    gated_metrics = (
        ("rounds_per_sec", +1),
        ("jobs_per_sec", +1),
        ("sessions_per_sec", +1),
        ("states_per_sec", +1),
        ("snapshots_per_sec", +1),
        ("solve_ms", -1),
    )
    # Units for failure messages: a tripped gate prints the offending
    # metric's unit and both values side by side, so the log alone says what
    # regressed and by how much in physical terms.
    units = {
        "rounds_per_sec": "rounds/s",
        "jobs_per_sec": "jobs/s",
        "sessions_per_sec": "sessions/s",
        "states_per_sec": "states/s",
        "snapshots_per_sec": "snapshots/s",
        "solve_ms": "ms",
        "steady_allocs_per_round": "allocs/round",
    }

    failures = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current report")
            continue
        for metric, direction in gated_metrics:
            if metric not in base:
                continue  # baseline predates this metric; nothing to gate
            if metric not in cur:
                failures.append(
                    f"{name}: metric '{metric}' present in baseline but "
                    f"missing from current report")
                continue
            if args.shape_only:
                print(f"{name:28s} {metric:16s} present")
                continue
            b, c = base[metric], cur[metric]
            change = (c - b) / b if b > 0 else 0.0
            status = "ok"
            if direction * change < -args.threshold:
                status = "REGRESSION"
                unit = units.get(metric, "")
                failures.append(
                    f"{name}: {metric} regressed — "
                    f"current {c:.2f} {unit} vs baseline {b:.2f} {unit} "
                    f"({change * 100:+.1f}%, allowed "
                    f"{'-' if direction > 0 else '+'}"
                    f"{args.threshold * 100:.0f}%)")
            print(f"{name:28s} {metric:16s} {c:14.2f} "
                  f"(baseline {b:.2f}, {change * 100:+.1f}%) {status}")
        if "steady_allocs_per_round" in base:
            if "steady_allocs_per_round" not in cur:
                failures.append(
                    f"{name}: metric 'steady_allocs_per_round' present in "
                    f"baseline but missing from current report")
                continue
            if args.shape_only:
                print(f"{name:28s} {'allocs/round':16s} present")
                continue
            allocs = cur["steady_allocs_per_round"]
            budget = cur.get("alloc_budget", args.alloc_budget)
            try:
                budget = float(budget)
            except (TypeError, ValueError):
                failures.append(
                    f"{name}: alloc_budget {budget!r} is not a number")
                continue
            status = "ok"
            if allocs > budget:
                status = "OVER BUDGET"
                failures.append(
                    f"{name}: steady_allocs_per_round over budget — "
                    f"current {allocs:.4f} allocs/round vs budget "
                    f"{budget:.4f} allocs/round")
            print(f"{name:28s} {'allocs/round':16s} {allocs:14.4f} "
                  f"(budget {budget}) {status}")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:24s} new cell (not in baseline), skipped")

    # Shape mode stops here: the within-report ratio gates below compare
    # measured values, which a smoke run does not produce meaningfully.
    if args.shape_only:
        if failures:
            print("\nSHAPE CHECK FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nshape check passed")
        return 0

    # Distributed scaling gate, held within the current report: a cell with
    # scaling_ref + scaling_gate claims its aggregate rounds_per_sec is at
    # least gate x its fewer-worker twin's. Only meaningful when the machine
    # can actually run the workers in parallel.
    for name, cur in sorted(current.items()):
        ref_name = cur.get("scaling_ref")
        gate = cur.get("scaling_gate")
        if ref_name is None or gate is None:
            continue
        try:
            gate = float(gate)
        except (TypeError, ValueError):
            failures.append(f"{name}: scaling_gate {gate!r} is not a number")
            continue
        workers = cur.get("workers")
        cpus = cur.get("usable_cpus")
        if workers is None or cpus is None:
            failures.append(
                f"{name}: scaling gate needs both 'workers' and "
                f"'usable_cpus' recorded in the cell; got workers={workers!r}"
                f", usable_cpus={cpus!r}")
            continue
        if cpus < workers:
            print(f"{name:28s} {'scaling':16s} {'SKIPPED':>14s} "
                  f"(machine has {cpus} usable cpus < {workers} workers; "
                  f"linear scaling needs real parallelism)")
            continue
        ref = current.get(ref_name)
        if ref is None:
            failures.append(
                f"{name}: scaling_ref '{ref_name}' names a row missing from "
                f"the current report; the scaling gate needs both rows from "
                f"the same run")
            continue
        measured = cur.get("measured_scaling")
        if measured is not None:
            try:
                scaling = float(measured)
            except (TypeError, ValueError):
                failures.append(
                    f"{name}: measured_scaling {measured!r} is not a number")
                continue
        elif "rounds_per_sec" in cur and ref.get("rounds_per_sec", 0) > 0:
            scaling = cur["rounds_per_sec"] / ref["rounds_per_sec"]
        else:
            failures.append(
                f"{name}: scaling gate needs measured_scaling or "
                f"rounds_per_sec on both rows")
            continue
        status = "ok"
        if scaling < gate:
            status = "BELOW SCALING GATE"
            failures.append(
                f"{name}: scaling {scaling:.2f}x vs '{ref_name}' below "
                f"required {gate}x — aggregate rounds/s must scale with "
                f"worker count on a {cpus}-cpu machine")
        print(f"{name:28s} {'scaling':16s} {scaling:13.2f}x "
              f"(vs {ref_name}, min {gate}, {workers} workers on "
              f"{cpus} cpus) {status}")

    # Batched-vs-scalar ratio gate, held within the current report: both
    # rows come from the same run, so the ratio isolates the lane-parallel
    # engine's win from machine speed. Applies to every current cell that
    # names a scalar_ref (baseline presence is irrelevant).
    for name, cur in sorted(current.items()):
        ref_name = cur.get("scalar_ref")
        if ref_name is None:
            continue
        ref = current.get(ref_name)
        if ref is None:
            failures.append(
                f"{name}: scalar_ref '{ref_name}' names a row missing from "
                f"the current report; the batched speedup gate needs both "
                f"rows from the same run")
            continue
        missing = [n for n, c in ((name, cur), (ref_name, ref))
                   if "rounds_per_sec" not in c]
        if missing:
            failures.append(
                f"{name}: batched speedup gate needs rounds_per_sec on both "
                f"rows; missing from: {', '.join(missing)}")
            continue
        if ref["rounds_per_sec"] <= 0:
            failures.append(
                f"{name}: scalar_ref '{ref_name}' rounds_per_sec is "
                f"{ref['rounds_per_sec']}, cannot compute batched speedup")
            continue
        # Prefer the bench's own paired-window ratio (median of per-window
        # twin/ref ratios over interleaved windows): adjacent windows share
        # the machine's noise environment, so it is far more stable than
        # dividing two independently-taken best-of-N maxima — which matters
        # for tight gates like the obs twin's <=2% overhead floor.
        measured = cur.get("measured_speedup")
        min_speedup = cur.get("speedup_gate", args.min_batched_speedup)
        try:
            min_speedup = float(min_speedup)
        except (TypeError, ValueError):
            failures.append(
                f"{name}: speedup_gate {min_speedup!r} is not a number")
            continue
        if measured is not None:
            try:
                speedup = float(measured)
            except (TypeError, ValueError):
                failures.append(
                    f"{name}: measured_speedup {measured!r} is not a number")
                continue
        else:
            speedup = cur["rounds_per_sec"] / ref["rounds_per_sec"]
        status = "ok"
        if speedup < min_speedup:
            status = "BELOW MIN SPEEDUP"
            failures.append(
                f"{name}: batched_speedup {speedup:.2f}x vs '{ref_name}' "
                f"below required {min_speedup} — current "
                f"{cur['rounds_per_sec']:.2f} rounds/s vs scalar "
                f"{ref['rounds_per_sec']:.2f} rounds/s")
        print(f"{name:28s} {'batched_speedup':16s} {speedup:13.2f}x "
              f"(vs {ref_name}, min {min_speedup}) {status}")

    # Memory-ratio gate, held within the current report: a cell with
    # mem_ref + max_bytes_ratio claims its peak heap residency per tenant
    # is at most ratio x its materialized twin's. Both rows come from the
    # same run (same allocator, same machine), so the gate isolates the
    # representation's win from allocator behavior.
    for name, cur in sorted(current.items()):
        ref_name = cur.get("mem_ref")
        if ref_name is None:
            continue
        max_ratio = cur.get("max_bytes_ratio")
        try:
            max_ratio = float(max_ratio)
        except (TypeError, ValueError):
            failures.append(
                f"{name}: max_bytes_ratio {max_ratio!r} is not a number")
            continue
        ref = current.get(ref_name)
        if ref is None:
            failures.append(
                f"{name}: mem_ref '{ref_name}' names a row missing from the "
                f"current report; the memory gate needs both rows from the "
                f"same run")
            continue
        missing = [n for n, c in ((name, cur), (ref_name, ref))
                   if "bytes_per_tenant" not in c]
        if missing:
            failures.append(
                f"{name}: memory gate needs bytes_per_tenant on both rows; "
                f"missing from: {', '.join(missing)}")
            continue
        if ref["bytes_per_tenant"] <= 0:
            failures.append(
                f"{name}: mem_ref '{ref_name}' bytes_per_tenant is "
                f"{ref['bytes_per_tenant']}, cannot compute memory ratio")
            continue
        ratio = cur["bytes_per_tenant"] / ref["bytes_per_tenant"]
        status = "ok"
        if ratio > max_ratio:
            status = "OVER MEMORY CEILING"
            failures.append(
                f"{name}: bytes_per_tenant ratio {ratio:.2f}x vs "
                f"'{ref_name}' above allowed {max_ratio}x — current "
                f"{cur['bytes_per_tenant']:.0f} bytes/tenant vs "
                f"{ref['bytes_per_tenant']:.0f} bytes/tenant")
        print(f"{name:28s} {'bytes_ratio':16s} {ratio:13.2f}x "
              f"(vs {ref_name}, max {max_ratio}) {status}")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
