#!/usr/bin/env python3
"""Checks that the output checks catch a wrong reference.

    python3 perfbench/selftest.py [--workload <name> ...]

Run from the repository root. Writes a copy of perfbench/reference.txt
with every pinned value altered into the build directory, runs each
workload (default: all) for one second at seed 1 against it, and
requires every run to report failed > 0 and correct = false while still
exiting 0. Exits non-zero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(target, exist_ok=True)
    corrupted = os.path.join(target, "perfbench-corrupted-reference.txt")
    with open("perfbench/reference.txt") as src, open(corrupted, "w") as dst:
        for line in src:
            if line.strip() and not line.startswith("#"):
                line = line.rstrip("\n") + "0\n"
            dst.write(line)

    bad = 0
    try:
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
                   "--seconds", "1", "--trace", "0", "--reference", corrupted]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            caught = result is not None and result["failed"] > 0 and not result["correct"]
            bad += not caught
            summary = f"failed={result['failed']} of {result['attempted']}" if result else f"exit {done.returncode}"
            print(f"{w}: {'caught' if caught else 'NOT CAUGHT'} ({summary})")
    finally:
        os.remove(corrupted)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
