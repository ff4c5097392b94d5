#!/usr/bin/env python3
"""Builds the FungusDB benchmark from source and runs one workload.

Usage (from the repository root):

    python3 fungusbench/run.py --workload serve_read --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/fungusbench (default
.bench_build/fungusbench), configured once and brought up to date on every
call; its output goes to stderr so that the last line of stdout stays the
benchmark's JSON result. Every other argument is passed to the benchmark
binary unchanged (see fungusbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "fungusbench")


def build(out):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DFUNGUSDB_WERROR=OFF"])
    steps.append(["cmake", "--build", out, "--target", "fungusbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("fungusbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "fungusbench")
    work = os.path.join(os.path.dirname(out), "fungusbench-run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--work-dir", work] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
