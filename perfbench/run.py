#!/usr/bin/env python3
"""Build mapex and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload search_mix --seed 1 --seconds 20 --trace 0

Builds `mapex` (the repository's CLI) and the `perfbench` package in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the benchmark binary, whose last line of output is the JSON result.
Exits non-zero without a result if either build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("search_mix", "search_dosa", "serve_mix")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(root, "Cargo.toml"), "-p", "mapex-cli", "--bin", "mapex"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", os.path.join(here, "data"),
        "--mapex", os.path.join(target, "release", "mapex"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
