#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and prints
for every metric the median, the quartiles and the spread (interquartile
distance as a share of the median). The end-to-end bounds in BENCHMARK.json
come from this output.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--trace 0|1]
                                [--workloads serve-repeat,serve-churn,dom-page]
                                [--first-seed 1]

--seconds defaults to BENCHMARK.json's run_seconds. Each run's result line
is also echoed to stderr, so a long check can be followed as it goes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: correctness check failed" % (workload, seed))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        failed_shares = set()
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            sys.stderr.write("%s seed %d: %s\n" % (workload, args.first_seed + i,
                                                   json.dumps(result)))
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s: %d runs of %d s; failed share %s" %
              (workload, args.runs, args.seconds, sorted(failed_shares)))
        print("%-36s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print("%-36s %14.6g %14.6g %14.6g %8.2f%% %7s" %
                  (name, median, q1, q3, spread * 100,
                   "" if bound is None else "%.0f%%" % (bound * 100)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
