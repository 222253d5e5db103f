#!/usr/bin/env python3
"""Builds the repo benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve-repeat|serve-churn|dom-page \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
repository's libraries, pkrusafe_serve and the benchmark into
.bench_build/perfbench (build output goes to stderr); later runs only
rebuild what changed. The last line of stdout is the result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configures (once) and builds `target`; exits non-zero on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            sys.exit(1)


def main():
    build("perfbench")
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
