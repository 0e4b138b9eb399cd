#!/usr/bin/env python3
"""Coverage preset: build with -DRRS_COVERAGE=ON, run ctest, summarize.

Usage:
    tools/coverage_report.py [--build-dir build-cov] [--jobs N]
                             [--ctest-args ARGS] [--skip-build]
                             [--fail-under PCT]

Drives the whole flow:
  1. configure the build dir with -DRRS_COVERAGE=ON (tests only; bench and
     examples are skipped — the test suite is what drives coverage),
  2. build and run ctest (pass e.g. --ctest-args "-L dist" to restrict),
  3. summarize line coverage for src/:
       * clang builds: llvm-profdata merge + llvm-cov export -summary-only
         over every test binary (source-based coverage, exact union),
       * gcc builds: gcov over the emitted .gcda counters.

Prints a per-file table, a per-directory rollup (so e.g. src/offline/ is
visible in isolation), and a TOTAL line; with --fail-under the script exits
1 when the total falls below the threshold, so CI can gate.
(--min-line-coverage is kept as a deprecated alias of --fail-under.)

For headers compiled into many test binaries the gcc path reports the
best-covered instantiation per file (a cheap under-approximation of the
union); the clang path merges profiles exactly.

The parse/rollup helpers below are pure functions on text/JSON so
tools/test_coverage_report.py can pin them without a coverage build.
"""

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys


def run(cmd, **kwargs):
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, **kwargs)


def check_run(cmd, **kwargs):
    proc = run(cmd, **kwargs)
    if proc.returncode != 0:
        sys.exit(f"command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc


def find_test_binaries(build_dir):
    binaries = []
    for path in sorted(glob.glob(os.path.join(build_dir, "tests", "*"))):
        if os.path.isfile(path) and os.access(path, os.X_OK):
            binaries.append(path)
    return binaries


def parse_llvm_export(export_json, src_prefix):
    """llvm-cov export -summary-only JSON -> {relpath: (lines, covered)}.

    Only files under src_prefix (a realpath ending in os.sep) are kept;
    keys are paths relative to it. Files with zero instrumentable lines
    are dropped — they would divide by zero and carry no signal.
    """
    data = json.loads(export_json)
    per_file = {}
    for export in data.get("data", []):
        for entry in export.get("files", []):
            path = os.path.realpath(entry["filename"])
            if not path.startswith(src_prefix):
                continue
            lines = entry["summary"]["lines"]
            total = int(lines["count"])
            if total == 0:
                continue
            per_file[path[len(src_prefix):]] = (total, int(lines["covered"]))
    return per_file


def parse_gcov_stdout(stdout, build_dir, src_prefix, per_file):
    """Fold one `gcov -n` stdout into per_file ({relpath: (lines, covered)}).

    gcov paths are relative to the cwd it ran in (build_dir). When a header
    shows up in several test binaries, keep the best-covered instantiation
    (a cheap under-approximation of the profile union).
    """
    current = None
    for line in stdout.splitlines():
        m = re.match(r"File '(.*)'", line)
        if m:
            current = os.path.realpath(os.path.join(build_dir, m.group(1)))
            continue
        m = re.match(r"Lines executed:([0-9.]+)% of (\d+)", line)
        if m and current and current.startswith(src_prefix):
            total = int(m.group(2))
            executed = round(float(m.group(1)) / 100.0 * total)
            name = current[len(src_prefix):]
            if name not in per_file or executed > per_file[name][1]:
                per_file[name] = (total, executed)
            current = None
    return per_file


def rollup_directories(per_file):
    """{relpath: (lines, covered)} -> {directory: (lines, covered)}.

    Directory is the path's dirname relative to src/ ("core", "offline",
    ...); files sitting directly in src/ roll up under ".".
    """
    per_dir = {}
    for name, (total, executed) in per_file.items():
        directory = os.path.dirname(name) or "."
        old_total, old_executed = per_dir.get(directory, (0, 0))
        per_dir[directory] = (old_total + total, old_executed + executed)
    return per_dir


def total_coverage(per_file):
    """Total line-coverage percentage across all files (0.0 when empty)."""
    sum_total = sum(t for t, _ in per_file.values())
    sum_executed = sum(e for _, e in per_file.values())
    return 100.0 * sum_executed / sum_total if sum_total else 0.0


def render_report(per_file, out=sys.stdout):
    """Print the per-file table, the per-directory rollup, and TOTAL.

    Returns the total line-coverage percentage.
    """
    width = max(len(name) for name in per_file) + 2
    width = max(width, len("TOTAL") + 2)

    def row(name, total, executed):
        print(f"{name:<{width}} {total:>7} {executed:>8} "
              f"{100.0 * executed / total:>6.1f}%", file=out)

    print(f"\n{'file':<{width}} {'lines':>7} {'covered':>8} {'pct':>7}",
          file=out)
    for name in sorted(per_file):
        row(name, *per_file[name])

    per_dir = rollup_directories(per_file)
    print(f"\n{'directory':<{width}} {'lines':>7} {'covered':>8} {'pct':>7}",
          file=out)
    for directory in sorted(per_dir):
        row(directory + "/", *per_dir[directory])

    pct = total_coverage(per_file)
    sum_total = sum(t for t, _ in per_file.values())
    sum_executed = sum(e for _, e in per_file.values())
    print(f"\n{'TOTAL':<{width}} {sum_total:>7} {sum_executed:>8} "
          f"{pct:>6.1f}%", file=out)
    return pct


def report_llvm(build_dir, source_dir, profraws):
    profdata = os.path.join(build_dir, "coverage", "merged.profdata")
    check_run(["llvm-profdata", "merge", "-sparse", "-o", profdata] +
              profraws)
    binaries = find_test_binaries(build_dir)
    if not binaries:
        sys.exit(f"no test binaries under {build_dir}/tests")
    cmd = ["llvm-cov", "export", "-summary-only",
           f"-instr-profile={profdata}",
           "-ignore-filename-regex=(tests|_deps)/", binaries[0]]
    for extra in binaries[1:]:
        cmd += ["-object", extra]
    proc = check_run(cmd, capture_output=True, text=True)
    src_prefix = os.path.realpath(os.path.join(source_dir, "src")) + os.sep
    per_file = parse_llvm_export(proc.stdout, src_prefix)
    if not per_file:
        sys.exit("llvm-cov produced no coverage for src/ files")
    return render_report(per_file)


def report_gcov(build_dir, source_dir, gcdas):
    src_prefix = os.path.realpath(os.path.join(source_dir, "src")) + os.sep
    per_file = {}
    chunk = 64
    for start in range(0, len(gcdas), chunk):
        proc = check_run(["gcov", "-n"] + gcdas[start:start + chunk],
                         capture_output=True, text=True, cwd=build_dir)
        parse_gcov_stdout(proc.stdout, build_dir, src_prefix, per_file)
    if not per_file:
        sys.exit("gcov produced no coverage for src/ files")
    return render_report(per_file)


def build_arg_parser():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build-cov")
    parser.add_argument("--source-dir",
                        default=os.path.dirname(os.path.dirname(
                            os.path.abspath(__file__))))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--ctest-args", default="",
                        help="extra args for ctest, e.g. '-L dist'")
    parser.add_argument("--skip-build", action="store_true",
                        help="reuse an already-configured coverage build")
    parser.add_argument("--fail-under", "--min-line-coverage",
                        dest="fail_under", type=float, default=None,
                        help="fail (exit 1) below this total line %%")
    return parser


def main():
    args = build_arg_parser().parse_args()

    build_dir = os.path.abspath(args.build_dir)
    if not args.skip_build:
        check_run(["cmake", "-S", args.source_dir, "-B", build_dir,
                   "-DRRS_COVERAGE=ON", "-DCMAKE_BUILD_TYPE=Debug",
                   "-DRRS_BUILD_BENCH=OFF", "-DRRS_BUILD_EXAMPLES=OFF"])
        check_run(["cmake", "--build", build_dir, "-j", str(args.jobs)])

    # Stale counters from a previous run would double-count.
    coverage_dir = os.path.join(build_dir, "coverage")
    shutil.rmtree(coverage_dir, ignore_errors=True)
    os.makedirs(coverage_dir, exist_ok=True)
    for gcda in glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)

    env = dict(os.environ)
    env["LLVM_PROFILE_FILE"] = os.path.join(coverage_dir, "p-%p.profraw")
    ctest = ["ctest", "--output-on-failure", "-j", str(args.jobs)]
    ctest += args.ctest_args.split()
    check_run(ctest, cwd=build_dir, env=env)

    profraws = sorted(glob.glob(os.path.join(coverage_dir, "*.profraw")))
    gcdas = sorted(glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                             recursive=True))
    if profraws:
        pct = report_llvm(build_dir, args.source_dir, profraws)
    elif gcdas:
        pct = report_gcov(build_dir, args.source_dir, gcdas)
    else:
        sys.exit("no coverage counters produced — was the build configured "
                 "with -DRRS_COVERAGE=ON?")

    print(f"\ntotal line coverage: {pct:.1f}%")
    if args.fail_under is not None and pct < args.fail_under:
        sys.exit(f"line coverage {pct:.1f}% is below the required "
                 f"{args.fail_under:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
