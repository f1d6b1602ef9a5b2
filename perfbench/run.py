#!/usr/bin/env python3
"""Builds the MARAS benchmark driver from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload year|quarter --seed N \\
        --seconds S --trace 0|1

The driver is configured and built under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the build is a no-op once it is up to
date. Build output goes to stderr, so the last line on stdout is the
driver's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys


def build_step(cmd):
    """Runs one build command with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["year", "quarter"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        build_step(["cmake", "-S", source_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 8))
    build_step(["cmake", "--build", build_dir, "--target", "maras_perfbench",
                "-j", jobs])

    driver = os.path.join(build_dir, "maras_perfbench")
    result = subprocess.run([
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
