#!/usr/bin/env python3
"""Byte-identity and kill-and-resume smoke test of surveillance_report.

Runs `surveillance_report <dir> 6000 5 --checkpoint-dir=...` at
--workers=1/2/3/4, reruns the 1- and 3-thread runs with --resume, reruns the
1- and 2-thread runs on seed 6 over their seed-5 checkpoint dirs without
--resume, and repeats the 1- and 3-thread runs under a memory budget small
enough that the mine degrades. Then, for each stage checkpoint in the order
a run writes them (the four quarters, closed, rules, ranked), it starts a
fresh run, SIGKILLs it as soon as that checkpoint appears and reruns it with
--resume. Requires:

  * every run to exit 0 and analysis.json to be byte-identical across
    thread counts, with and without --resume;
  * each --resume rerun of a finished run to replay the four quarter stages
    and the closed, rules and ranked stages (7);
  * each seed-6 rerun over a seed-5 checkpoint dir to replay nothing and to
    write the analysis.json of a fresh seed-6 run;
  * the budgeted runs to print the "memory budget exhausted" degradation
    note and to agree with each other;
  * each resumed rerun of a killed run to write the clean run's
    analysis.json, replaying at least one stage when the kill landed, and
    at least one kill to land before the run exited (exit status -9). A kill
    that lands after the run exited is reported for its stage, not failed.

Usage:
    surveillance_report_smoke.py --surveillance-report <binary>
"""

import argparse
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPORTS = "6000"
SEED = "5"
# The undegraded mine of this corpus peaks at about 3.6 MiB of budget, so 3
# MiB makes it escalate min_support once.
BUDGET_MB = "3"
# Every stage checkpoint of a run, in the order the run writes them.
STAGES = ("quarter-2014Q1", "quarter-2014Q2", "quarter-2014Q3",
          "quarter-2014Q4", "closed", "rules", "ranked")


def command(binary, out, ckpt, seed, flags):
    return [str(binary), str(out), REPORTS, seed, f"--checkpoint-dir={ckpt}",
            *flags]


def run(binary, tmp, name, *flags, seed=SEED, ckpt=None):
    out = tmp / name
    out.mkdir(exist_ok=True)
    if ckpt is None:
        ckpt = tmp / ("ckpt-" + name.split(".")[0])
    cmd = command(binary, out, ckpt, seed, flags)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    print(f"$ {' '.join(cmd)}  (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}")
    return proc.stdout, (out / "analysis.json").read_bytes()


def kill_at(binary, tmp, stage):
    """Starts a run, SIGKILLs it once `stage`'s checkpoint appears, and
    returns (checkpoint dir, whether the kill landed before the run
    exited)."""
    out = tmp / f"kill-{stage}"
    out.mkdir()
    ckpt = tmp / f"ckpt-kill-{stage}"
    target = ckpt / f"{stage}.ckpt"
    cmd = command(binary, out, ckpt, SEED, ())
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    while proc.poll() is None and not target.exists():
        time.sleep(0.0002)
    proc.send_signal(signal.SIGKILL)  # a no-op once the run was reaped
    proc.wait()
    landed = proc.returncode == -signal.SIGKILL
    outcome = "exit -9" if landed else "the run had exited"
    print(f"$ {' '.join(cmd)}  (SIGKILL at {stage}: {outcome})")
    if not landed and proc.returncode != 0:
        raise RuntimeError(f"the run killed at {stage} exited "
                           f"{proc.returncode}")
    return ckpt, landed


def smoke(binary, tmp):
    stdout, reference = run(binary, tmp, "w1")
    ranked = re.search(r"(\d+) ranked MCACs", stdout)
    if ranked is None or int(ranked.group(1)) == 0:
        return "the 1-thread run ranked no MCACs"
    for workers in ("2", "3", "4"):
        _, got = run(binary, tmp, "w" + workers, f"--workers={workers}")
        if got != reference:
            return f"--workers={workers} differs from --workers=1"
    # A resumed rerun replays the 4 quarter stages and closed, rules and
    # ranked.
    for workers in ("1", "3"):
        stdout, got = run(binary, tmp, f"w{workers}.resumed",
                          f"--workers={workers}", "--resume")
        if "resumed 7 stage(s)" not in stdout:
            return f"--workers={workers} --resume did not replay 7 stages"
        if got != reference:
            return f"--workers={workers} --resume differs from --workers=1"
    # Without --resume a used checkpoint dir is never read: a run on another
    # seed recomputes every stage.
    _, fresh = run(binary, tmp, "fresh6", seed="6")
    if fresh == reference:
        return "seeds 5 and 6 gave the same analysis.json"
    for workers in ("1", "2"):
        stdout, got = run(binary, tmp, f"w{workers}.seed6",
                          f"--workers={workers}", seed="6")
        if "resumed" in stdout:
            return f"--workers={workers} on seed 6 replayed a seed-5 stage"
        if got != fresh:
            return (f"--workers={workers} on seed 6 over a seed-5 "
                    "checkpoint dir differs from a fresh seed-6 run")
    budget = f"--memory-budget-mb={BUDGET_MB}"
    stdout, degraded = run(binary, tmp, "b1", budget)
    if "memory budget exhausted" not in stdout:
        return "the budgeted 1-thread run did not degrade"
    _, got = run(binary, tmp, "b3", budget, "--workers=3")
    if got != degraded:
        return "the budgeted --workers=3 run differs from --workers=1"
    # Kill and resume: a run SIGKILLed right after a stage checkpoint
    # landed, rerun with --resume, writes the clean run's bytes.
    landed_any = False
    for stage in STAGES:
        ckpt, landed = kill_at(binary, tmp, stage)
        landed_any = landed_any or landed
        stdout, got = run(binary, tmp, f"kill-{stage}", "--resume",
                          ckpt=ckpt)
        if landed and "resumed" not in stdout:
            return f"the resume after a kill at {stage} replayed nothing"
        if got != reference:
            return (f"the resume after a kill at {stage} differs from a "
                    "clean run")
    if not landed_any:
        return "no SIGKILL landed before its run exited"
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
