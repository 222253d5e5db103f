#!/usr/bin/env python3
"""Builds and runs the benchmark's self-tests (expected values, percentiles,
generators, span accounting, and a short smoke run of every workload).

    python3 perfbench/selftest.py [gtest flags...]
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    run.build("perfbench_test")
    return subprocess.run([os.path.join(run.BUILD, "perfbench_test")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
