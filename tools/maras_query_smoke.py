#!/usr/bin/env python3
"""End-to-end smoke test of the maras-query CLI.

Writes a small synthetic FAERS quarter with generate_faers, publishes it
with `maras-query build`, and then requires:

  * `maras-query validate` on the published generation to print OK with
    at least one lattice edge, and
  * `maras-query check` (snapshot answers byte-identical to a fresh
    analysis) to exit 0.

Usage:
    maras_query_smoke.py --maras-query <binary> --generate-faers <binary>
"""

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPORTS = "3000"


def run(cmd):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, check=False)
    print(f"$ {' '.join(str(c) for c in cmd)}  (exit {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    return proc


def smoke(maras_query, generate_faers, tmp):
    faers = tmp / "faers"
    store = tmp / "store"
    faers.mkdir()
    if run([generate_faers, faers, "1", REPORTS]).returncode != 0:
        return "generate_faers failed"
    if run([maras_query, "build", store, faers, "1"]).returncode != 0:
        return "build failed"
    generation = store / (store / "CURRENT").read_text().strip()
    proc = run([maras_query, "validate", generation])
    edges = re.search(r"\blattice-edges=(\d+)\b", proc.stdout)
    if proc.returncode != 0 or not proc.stdout.startswith("OK "):
        return "validate did not print OK"
    if edges is None or int(edges.group(1)) == 0:
        return "validate reports no lattice edges"
    if run([maras_query, "check", store, faers, "1"]).returncode != 0:
        return "check failed"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--maras-query", required=True, type=Path)
    ap.add_argument("--generate-faers", required=True, type=Path)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="maras_query_smoke.") as tmp:
        error = smoke(args.maras_query, args.generate_faers, Path(tmp))
    if error is not None:
        print(f"maras-query smoke: FAIL: {error}")
        return 1
    print("maras-query smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
