#!/usr/bin/env python3
"""Byte-identity smoke test of surveillance_report's governed paths.

Runs `surveillance_report <dir> 6000 5 --checkpoint-dir=...` in-process
(--workers=1) and through the shard supervisor (--workers=2/3/4), reruns
the 1- and 3-worker runs with --resume, reruns the 1- and 2-worker runs on
seed 6 over their seed-5 checkpoint dirs without --resume, and repeats the
1- and 3-worker runs under a memory budget small enough that the mine
degrades. Requires:

  * every run to exit 0 and analysis.json to be byte-identical across
    worker counts, with and without --resume;
  * each --resume rerun to replay the four quarter stages and the
    closed, rules and ranked stages (7), the supervisor's without spawning
    a worker;
  * each seed-6 rerun over a seed-5 checkpoint dir to replay nothing, the
    supervisor's to spawn all four workers, and both to write the
    analysis.json of a fresh seed-6 run;
  * a worker invocation for a fifth quarter to exit 2 as out of range;
  * the budgeted runs to print the "memory budget exhausted" degradation
    note and to agree with each other.

Usage:
    surveillance_report_smoke.py --surveillance-report <binary>
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPORTS = "6000"
SEED = "5"
# The undegraded mine of this corpus peaks at about 3.6 MiB of budget, so 3
# MiB makes it escalate min_support once.
BUDGET_MB = "3"


def run(binary, tmp, name, *flags, seed=SEED):
    out = tmp / name
    out.mkdir()
    cmd = [str(binary), str(out), REPORTS, seed,
           f"--checkpoint-dir={tmp / ('ckpt-' + name.split('.')[0])}",
           *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    print(f"$ {' '.join(cmd)}  (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}")
    return proc.stdout, (out / "analysis.json").read_bytes()


def smoke(binary, tmp):
    stdout, reference = run(binary, tmp, "w1")
    ranked = re.search(r"(\d+) ranked MCACs", stdout)
    if ranked is None or int(ranked.group(1)) == 0:
        return "the in-process run ranked no MCACs"
    for workers in ("2", "3", "4"):
        _, got = run(binary, tmp, "w" + workers, f"--workers={workers}")
        if got != reference:
            return f"--workers={workers} differs from --workers=1"
    # Both paths replay the 4 quarter stages and closed, rules and ranked;
    # the supervisor reuses its quarter checkpoints without spawning a
    # worker.
    for workers in ("1", "3"):
        stdout, got = run(binary, tmp, f"w{workers}.resumed",
                          f"--workers={workers}", "--resume")
        if "resumed 7 stage(s)" not in stdout:
            return f"--workers={workers} --resume did not replay 7 stages"
        if workers != "1" and " 0 attempts" not in stdout:
            return f"--workers={workers} --resume spawned a worker"
        if got != reference:
            return f"--workers={workers} --resume differs from --workers=1"
    # Without --resume a used checkpoint dir is never read: a run on another
    # seed recomputes every quarter, the supervisor's in its workers.
    _, fresh = run(binary, tmp, "fresh6", seed="6")
    if fresh == reference:
        return "seeds 5 and 6 gave the same analysis.json"
    for workers in ("1", "2"):
        stdout, got = run(binary, tmp, f"w{workers}.seed6",
                          f"--workers={workers}", seed="6")
        if "resumed" in stdout:
            return f"--workers={workers} on seed 6 replayed a seed-5 stage"
        if workers != "1" and " 4 attempts" not in stdout:
            return f"--workers={workers} on seed 6 did not spawn 4 workers"
        if got != fresh:
            return (f"--workers={workers} on seed 6 over a seed-5 "
                    "checkpoint dir differs from a fresh seed-6 run")
    # A worker asked for a quarter past the year's four is a bad invocation.
    cmd = [str(binary), str(tmp), REPORTS, SEED,
           f"--checkpoint-dir={tmp / 'ckpt-bad-shard'}", "--shard=quarter:4"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    print(f"$ {' '.join(cmd)}  (exit {proc.returncode})")
    sys.stdout.write(proc.stderr)
    if proc.returncode != 2 or "out of range" not in proc.stderr:
        return "--shard=quarter:4 was not rejected as out of range"
    budget = f"--memory-budget-mb={BUDGET_MB}"
    stdout, degraded = run(binary, tmp, "b1", budget)
    if "memory budget exhausted" not in stdout:
        return "the budgeted in-process run did not degrade"
    _, got = run(binary, tmp, "b3", budget, "--workers=3")
    if got != degraded:
        return "the budgeted --workers=3 run differs from --workers=1"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--surveillance-report", required=True, type=Path)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="surveillance_smoke.") as tmp:
        try:
            error = smoke(args.surveillance_report, Path(tmp))
        except RuntimeError as failure:
            error = str(failure)
    if error is not None:
        print(f"surveillance_report smoke: FAIL: {error}")
        return 1
    print("surveillance_report smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
