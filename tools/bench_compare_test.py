#!/usr/bin/env python3
"""Self-test for bench_compare.py.

A doctored copy of a committed baseline must make the tool fail on a
slowdown, pass on a speedup, and read the same time in different units as
equal. A comparison that cannot fail gates nothing. (A baseline compared
with itself is the `tools.bench_compare.self` ctest.)
"""

import copy
import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "bench_compare.py")
BASELINES = sorted(glob.glob(os.path.join(os.path.dirname(HERE), "bench",
                                          "baselines", "BENCH_*.json")))


def run_compare(current, baseline):
    return subprocess.run(
        [sys.executable, TOOL, "--baseline", baseline, current],
        capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        with open(BASELINES[0], encoding="utf-8") as f:
            self.doc = json.load(f)

    def write(self, doc):
        path = os.path.join(self.tmp.name, "current.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def scaled(self, factor):
        doc = copy.deepcopy(self.doc)
        for run in doc["runs"]:
            run["real_time"] *= factor
        return self.write(doc)

    def test_slowdown_past_threshold_fails(self):
        proc = run_compare(self.scaled(2.0), BASELINES[0])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSED", proc.stdout)

    def test_speedup_passes_and_is_reported(self):
        proc = run_compare(self.scaled(0.5), BASELINES[0])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("improved", proc.stdout)
        self.assertNotIn("(no change)", proc.stdout)

    def test_noise_inside_threshold_is_ok(self):
        proc = run_compare(self.scaled(1.05), BASELINES[0])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("(no change)", proc.stdout)

    def test_units_are_converted(self):
        doc = copy.deepcopy(self.doc)
        for run in doc["runs"]:
            factor = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
            run["real_time"] *= factor[run["time_unit"]]
            run["time_unit"] = "us"
        proc = run_compare(self.write(doc), BASELINES[0])
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("(no change)", proc.stdout)

    def test_unreadable_input_exits_2(self):
        proc = run_compare(os.path.join(self.tmp.name, "missing.json"),
                           BASELINES[0])
        self.assertEqual(proc.returncode, 2, proc.stderr)


if __name__ == "__main__":
    unittest.main()
