#!/usr/bin/env python3
"""Checks that a bench binary's display output follows google-benchmark's
--benchmark_format and --benchmark_color flags while its --bench_json file
is still written.

Usage: bench_format_test.py <bench binary> <benchmark filter>

Runs the filter once per format with a tiny minimum time (a bare number of
seconds, which every google-benchmark version accepts).
"""

import json
import os
import subprocess
import sys
import tempfile


def run(binary, flt, *flags):
    proc = subprocess.run(
        [binary, f"--benchmark_filter={flt}", "--benchmark_min_time=0.01",
         *flags],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{binary} {' '.join(flags)} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    return proc


def expect(condition, message, proc):
    if not condition:
        sys.exit(f"FAIL: {message}\n--- stdout\n{proc.stdout}"
                 f"--- stderr\n{proc.stderr}")


def main():
    binary, flt = sys.argv[1], sys.argv[2]

    csv = run(binary, flt, "--benchmark_format=csv")
    expect(csv.stdout.startswith("name,iterations,real_time,cpu_time,"),
           "csv output does not start with the CSV header", csv)
    expect(len(csv.stdout.splitlines()) == 2,
           "csv output is not one header and one row", csv)
    expect("\x1b" not in csv.stdout + csv.stderr,
           "csv run printed an ANSI escape", csv)

    plain = run(binary, flt, "--benchmark_color=false")
    expect("\x1b" not in plain.stdout + plain.stderr,
           "--benchmark_color=false printed an ANSI escape", plain)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        as_json = run(binary, flt, "--benchmark_format=json",
                      f"--bench_json={path}")
        shown = json.loads(as_json.stdout)
        expect(len(shown["benchmarks"]) == 1,
               "json display does not hold exactly one benchmark", as_json)
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
        expect(len(written["runs"]) == 1,
               "--bench_json file does not hold exactly one run", as_json)
    print("ok")


if __name__ == "__main__":
    main()
