#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `experiments` binary and the
`perfbench` package in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs `perfbench` with the given flags plus the
paths it needs. Build output goes to stderr; the last line of stdout is
the result JSON. Extra flags (`--reference <file>`) are passed through.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ["Cargo.toml", os.path.join("perfbench", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"run.py: no {needed} here; run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    bench = os.path.join(target, "release", "perfbench")
    experiments = os.path.join(target, "release", "experiments")
    args = sys.argv[1:] + [
        "--experiments", experiments,
        "--scratch", os.path.join(target, "perfbench-scratch"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run([bench] + args, cwd=root).returncode)


if __name__ == "__main__":
    main()
