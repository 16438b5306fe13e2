#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs perfbench/run.py several times per workload, each time with
another seed, and prints for every metric the median of the runs and
the spread between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)). That spread must stay
below the metric's bound in BENCHMARK.json. Also prints, per run, the
fastest, the 10th-percentile and the median rep and the fastest and
the median set-up, and the spread each of those statistics has across
the runs, which shows why rep_ms and setup_s use the fastest.

  python3 perfbench/steadiness.py [--runs 10] [--seconds S]
                                  [--workloads a,b] [--first-seed 100]

Run from the repository root. S defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    reps = re.search(r"best=([0-9.]+) s p10=([0-9.]+) s median=([0-9.]+) s",
                     out)
    setups = re.search(r"setup runs=[0-9]+ best=([0-9.]+) s median=([0-9.]+) s",
                       out)
    load = re.search(r"load_start=\[([0-9.]+)", out)
    stats = [float(reps.group(i)) for i in (1, 2, 3)] + \
        [float(setups.group(i)) for i in (1, 2)]
    return result, stats, load.group(1)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        print("%s: %d runs of %d s" % (workload, args.runs, args.seconds))
        print("  %6s %12s %12s %12s %12s %12s %6s" % (
            "seed", "best_rep_s", "p10_rep_s", "median_rep_s",
            "best_setup_s", "med_setup_s", "load"))
        reps = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, rep, load = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print("  seed %d: output check FAILED" % seed)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            reps.append(rep)
            print("  %6d %12.6f %12.6f %12.6f %12.6f %12.6f %6s" % (
                seed, rep[0], rep[1], rep[2], rep[3], rep[4], load))
        for name, bound in bounds.items():
            vals = values[name]
            flag = "" if spread(vals) < bound / 3 else "  <-- above bound/3"
            print("  %-12s median %12.6g  spread %.4f  bound %.2f%s" % (
                name, statistics.median(vals), spread(vals), bound, flag))
        print("  spread by statistic: best rep %.4f, p10 rep %.4f, "
              "median rep %.4f, best set-up %.4f, median set-up %.4f"
              % tuple(spread([r[i] for r in reps]) for i in range(5)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
