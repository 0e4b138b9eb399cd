#!/usr/bin/env python3
"""Checks that a bench report's usable_cpus honours the CPU affinity mask.

Usage:
    check_pinned_cpus.py BENCH_BINARY OUT_JSON

Runs `taskset -c 0 BENCH_BINARY OUT_JSON` in smoke mode (RRS_BENCH_SMOKE=1)
and fails (exit 1) unless every cell of the report records usable_cpus == 1.
bench_compare.py enforces a worker-scaling gate whenever a report's
usable_cpus >= its workers, so a pinned run that still counted every online
CPU would be gated on CPUs it could not use.
"""

import json
import os
import subprocess
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, out_path = sys.argv[1], sys.argv[2]
    env = dict(os.environ, RRS_BENCH_SMOKE="1")
    done = subprocess.run(["taskset", "-c", "0", binary, out_path], env=env,
                          stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print("pinned run exited %d" % done.returncode, file=sys.stderr)
        return 1
    with open(out_path) as f:
        cells = json.load(f)["benchmarks"]
    if not cells:
        print("pinned run wrote no cells", file=sys.stderr)
        return 1
    wrong = [(c["name"], c.get("usable_cpus")) for c in cells
             if c.get("usable_cpus") != 1]
    for name, cpus in wrong:
        print("%s: usable_cpus %s under taskset -c 0, want 1" % (name, cpus),
              file=sys.stderr)
    if wrong:
        return 1
    print("usable_cpus == 1 in all %d cells" % len(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
