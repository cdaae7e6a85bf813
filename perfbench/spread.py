#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload <name> ...] [--runs 10] [--first-seed 1]

Run from the repository root. Runs each workload (default: all in
BENCHMARK.json) `--runs` times, each with another seed, at the
benchmark's `run_seconds`, and prints per metric the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, that is
(q3 - q1) / median, next to the metric's bound. A spread at or above a
third of its bound is flagged. Exits non-zero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"spread.py: {' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {' '.join(cmd)} reported failures: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            for name, v in run_once(w, args.first_seed + i, bench["run_seconds"]).items():
                values.setdefault(name, []).append(v)
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            flagged += not ok
            print(f"  {metric['name']:<14} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.4f}  bound {metric['bound']:.2f}"
                  f"{'' if ok else '  WIDE'}")
        sys.stdout.flush()
    print(f"{flagged} spread(s) at or above a third of their bound")


if __name__ == "__main__":
    main()
