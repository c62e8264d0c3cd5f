#!/usr/bin/env python3
"""Builds and runs the keystroke benchmark (see NOTES.md).

Run from the repository root:

    python3 keybench/run.py --workload large_doc --seed 1 --seconds 30 --trace 0

The engine is compiled from src/ together with the benchmark program, with
CMake, into $CARGO_TARGET_DIR/keybench (default .bench_build/keybench);
results and spans go to .bench_out/. Build output goes to stderr, so the
last line of stdout is the program's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("large_doc", "remote_doc")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "keybench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "keybench")
    if not build(build_dir):
        print("keybench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    command = [
        os.path.join(build_dir, "keybench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_dir,
    ]
    run = subprocess.run(command, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
