#!/usr/bin/env python3
"""Diff a microbench run against its committed baseline.

Reads the JSON a bench binary writes with `--bench_json=PATH` and the
matching `bench/baselines/BENCH_<name>.json` (picked from the run's
"bench" field, e.g. "bench_mcac" -> BENCH_mcac.json, unless --baseline
names a file). Rows are matched by name and their wall-clock `real_time`
compared after unit conversion. A row slower than the baseline by more
than the noise threshold is a regression, one faster by more than it an
improvement; rows present on one side only are listed.

Exit status: 0 when no row regressed, 1 when any did, 2 on unreadable
input. Usage:

  ./build/bench/bench_mcac --bench_json=/tmp/mcac.json
  python3 tools/bench_compare.py /tmp/mcac.json
"""

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(REPO, "bench", "baselines")

# Shared hosts move microbench rows by 10-20% run to run, so only changes
# past that band are flagged.
NOISE_THRESHOLD = 0.20

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc.get("runs"), list):
        raise ValueError(f"{path}: no \"runs\" list")
    return doc


def rows_ns(doc):
    """Row name -> real_time in nanoseconds."""
    rows = {}
    for run in doc["runs"]:
        unit = run.get("time_unit", "ns")
        if unit not in _TO_NS:
            raise ValueError(f"row {run.get('name')}: unknown unit {unit!r}")
        rows[run["name"]] = float(run["real_time"]) * _TO_NS[unit]
    return rows


def default_baseline(doc):
    name = doc.get("bench", "")
    if not name.startswith("bench_"):
        raise ValueError(f"cannot infer a baseline from bench {name!r}")
    return os.path.join(BASELINES, "BENCH_" + name[len("bench_"):] + ".json")


def compare(baseline, current):
    """Returns (lines, regressed, improved, unmatched) for two row maps."""
    lines = []
    regressed = improved = unmatched = 0
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            lines.append(f"  removed    {name}")
            unmatched += 1
            continue
        if name not in baseline:
            lines.append(f"  added      {name}")
            unmatched += 1
            continue
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        if delta > NOISE_THRESHOLD:
            verdict = "REGRESSED"
            regressed += 1
        elif delta < -NOISE_THRESHOLD:
            verdict = "improved"
            improved += 1
        else:
            verdict = "ok"
        lines.append(f"  {verdict:<10} {name}: {base / 1e6:.4f} -> "
                     f"{cur / 1e6:.4f} ms ({delta:+.1%})")
    return lines, regressed, improved, unmatched


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="--bench_json output of a bench run")
    parser.add_argument("--baseline",
                        help="baseline JSON (default: from the run's bench)")
    args = parser.parse_args(argv)
    try:
        current = load(args.current)
        baseline_path = args.baseline or default_baseline(current)
        baseline = load(baseline_path)
        lines, regressed, improved, unmatched = compare(
            rows_ns(baseline), rows_ns(current))
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    print(f"bench_compare: {args.current} vs {baseline_path} "
          f"(threshold {NOISE_THRESHOLD:.0%})")
    print("\n".join(lines))
    summary = (f"bench_compare: {len(lines)} rows, {regressed} regressed, "
               f"{improved} improved, {unmatched} unmatched")
    if regressed == improved == unmatched == 0:
        summary += " (no change)"
    print(summary)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
