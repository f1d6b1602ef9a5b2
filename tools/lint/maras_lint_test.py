#!/usr/bin/env python3
"""Self-test for maras-lint.

Every rule is exercised both ways against the fixtures in testdata/: the
`bad` tree must make the rule fire (non-zero exit naming the rule) and the
`good` tree must stay quiet. A linter that cannot fail is worse than no
linter — the bad-fixture half is what proves the lint ctest actually gates.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "maras_lint.py")
TESTDATA = os.path.join(HERE, "testdata")

sys.path.insert(0, HERE)
import maras_lint  # noqa: E402


def run_lint(root, rules=None, paths=()):
    cmd = [sys.executable, LINT, "--root", root]
    for r in rules or ():
        cmd += ["--rule", r]
    cmd += list(paths)
    return subprocess.run(cmd, capture_output=True, text=True)


class RuleFixtureTest(unittest.TestCase):
    """For each rule: bad fires, good stays quiet."""

    def assert_fires(self, rule, extra_expected=1):
        root = os.path.join(TESTDATA, rule, "bad")
        proc = run_lint(root, rules=[rule])
        self.assertEqual(proc.returncode, 1,
                         f"{rule}: bad fixture did not fail:\n{proc.stdout}")
        self.assertIn(f"[{rule}]", proc.stdout)
        fired = proc.stdout.count(f"[{rule}]")
        self.assertGreaterEqual(fired, extra_expected, proc.stdout)

    def assert_quiet(self, rule):
        root = os.path.join(TESTDATA, rule, "good")
        proc = run_lint(root, rules=[rule])
        self.assertEqual(
            proc.returncode, 0,
            f"{rule}: good fixture raised violations:\n{proc.stdout}")
        self.assertEqual(proc.stdout, "")

    def test_mining_flat_containers(self):
        # fpgrowth.cc, bitmap.cc and profile.cc (a file the old hot-file
        # allowlist missed) must all fire; the good tree's item_dictionary.cc
        # proves the one exemption.
        self.assert_fires("mining-flat-containers", extra_expected=3)
        self.assert_quiet("mining-flat-containers")

    def test_no_raw_new_delete(self):
        self.assert_fires("no-raw-new-delete", extra_expected=2)
        self.assert_quiet("no-raw-new-delete")

    def test_runcontext_polling(self):
        self.assert_fires("runcontext-polling")
        self.assert_quiet("runcontext-polling")

    def test_header_guard(self):
        self.assert_fires("header-guard", extra_expected=2)
        self.assert_quiet("header-guard")

    def test_no_using_namespace_header(self):
        self.assert_fires("no-using-namespace-header")
        self.assert_quiet("no-using-namespace-header")

    def test_statusor_unchecked_deref(self):
        self.assert_fires("statusor-unchecked-deref")
        self.assert_quiet("statusor-unchecked-deref")

    def test_no_raw_subprocess(self):
        # fork, execvp, system, popen in src/core and fork, execvp in
        # src/util — all six must fire in the bad tree, so no file is
        # exempt; the good tree proves the member-call escape and
        # comment/string stripping.
        self.assert_fires("no-raw-subprocess", extra_expected=6)
        self.assert_quiet("no-raw-subprocess")

    def test_serve_validated_access(self):
        # reinterpret_cast, memcpy, and data()-arithmetic must all fire in
        # the bad tree; the good tree proves the bounded_view.h exemption
        # and that BoundedView-mediated reads stay quiet.
        self.assert_fires("serve-validated-access", extra_expected=3)
        self.assert_quiet("serve-validated-access")

    def test_mutex_annotations(self):
        # std::mutex member, std::shared_mutex member, and an annotated-type
        # member with no GUARDED_BY user — all three must fire; the good tree
        # proves the member-vs-local scope split, the ACQUIRED_BEFORE
        # declaration suffix, the src/util/mutex.h wrapper exemption, and the
        # util-layer raw-type allowance.
        self.assert_fires("mutex-annotations", extra_expected=3)
        self.assert_quiet("mutex-annotations")

    def test_reachability(self):
        root = os.path.join(TESTDATA, "reachability", "bad")
        proc = run_lint(root, rules=["reachability"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        fired = {line.split(":")[0] for line in proc.stdout.splitlines()
                 if "[reachability]" in line}
        self.assertEqual(fired, {
            "src/lib/test_only.h",      # included only from tests/
            "src/lib/fuzz_only.h",      # included only from fuzz/
            "src/lib/orphan.h",         # included from nowhere
            "src/lib/orphan_detail.h",  # only the unreached orphan.cc
        }, proc.stdout)
        # examples/ reaches api.h, and api.cc reaches detail.h.
        self.assert_quiet("reachability")

    def test_reachability_allowlist(self):
        root = os.path.join(TESTDATA, "reachability", "allowlisted")
        proc = run_lint(root, rules=["reachability"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("src/lib/kept.h:1: [reachability]", proc.stdout)
        self.assertEqual(
            maras_lint.unreached_src_headers(
                root, allowlist={"src/lib/kept.h": "fixture"}),
            [])

    def test_good_fixtures_clean_under_all_rules(self):
        # Cross-rule quiet check: a good fixture for one rule must not trip
        # another rule by accident.
        for rule in maras_lint.RULES:
            root = os.path.join(TESTDATA, rule, "good")
            proc = run_lint(root)
            self.assertEqual(proc.returncode, 0,
                             f"good fixture of {rule} tripped another "
                             f"rule:\n{proc.stdout}")


class SuppressionTest(unittest.TestCase):
    def test_annotated_violations_are_quiet(self):
        root = os.path.join(TESTDATA, "suppression")
        proc = run_lint(root)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_suppression_is_rule_scoped(self):
        # The annotation names no-raw-new-delete only; asking for a
        # different rule must not be affected, and stripping the annotation
        # must re-fire. Rebuild the fixture text in a temp tree.
        import tempfile
        src = os.path.join(TESTDATA, "suppression", "src", "core",
                           "suppressed.cc")
        with open(src) as fh:
            text = fh.read()
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src", "core"))
            with open(os.path.join(tmp, "src", "core", "raw.cc"), "w") as fh:
                fh.write(text.replace("maras-lint: disable=no-raw-new-delete",
                                      "annotation removed"))
            proc = run_lint(tmp, rules=["no-raw-new-delete"])
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertEqual(proc.stdout.count("[no-raw-new-delete]"), 2,
                             proc.stdout)


class HelperTest(unittest.TestCase):
    def test_strip_preserves_line_structure(self):
        text = 'int a; // new\n/* delete\n spans */ int b = 1; "new";\n'
        stripped = maras_lint.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("new", stripped)
        self.assertNotIn("delete", stripped)
        self.assertIn("int b = 1;", stripped)

    def test_strip_handles_raw_strings(self):
        text = 'auto s = R"js({"new": 1})js"; int c;\n'
        stripped = maras_lint.strip_comments_and_strings(text)
        self.assertNotIn("new", stripped)
        self.assertIn("int c;", stripped)

    def test_expected_guard_strips_src_prefix(self):
        self.assertEqual(maras_lint.expected_guard("src/mining/flat_table.h"),
                         "MARAS_MINING_FLAT_TABLE_H_")
        self.assertEqual(maras_lint.expected_guard("bench/bench_json.h"),
                         "MARAS_BENCH_BENCH_JSON_H_")

    def test_unknown_rule_is_usage_error(self):
        proc = run_lint(TESTDATA, rules=["no-such-rule"])
        self.assertEqual(proc.returncode, 2)


class TreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        # The production tree itself must lint clean; this is the same
        # invocation the lint ctest runs.
        repo_root = os.path.dirname(os.path.dirname(HERE))
        proc = run_lint(repo_root)
        self.assertEqual(proc.returncode, 0,
                         f"repo tree has lint violations:\n{proc.stdout}")

    def test_testdata_is_excluded_from_tree_scan(self):
        # The deliberately-bad fixtures must never fail the tree scan.
        repo_root = os.path.dirname(os.path.dirname(HERE))
        proc = run_lint(repo_root, paths=["tools"])
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
