#!/usr/bin/env python3
"""CloudLB benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
CloudLB libraries from ../src) into .bench_build/perfbench at the repository
root, then runs one workload:

    python3 perfbench/run.py --workload paper-jacobi32 --seed 1 \\
        --seconds 20 --trace 0

Build output goes to stderr, so the last line of stdout is the program's
JSON result. The exit code is the program's, or 1 when the build fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cloudlb_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(command + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
