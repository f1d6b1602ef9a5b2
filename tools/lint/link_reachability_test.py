#!/usr/bin/env python3
"""Self-test for link_reachability.py on canned `nm -C --defined-only` output.

The real check needs a special build (function sections, --gc-sections);
these fixtures cover its logic without one: which symbols count as library
functions, what counts as linked, how the allowlist matches, how the
manifest of shipped programs picks the roots, and that the check can fail.
"""

import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "link_reachability.py")
FIXTURES = os.path.join(HERE, "testdata", "link-reachability")

sys.path.insert(0, HERE)
import link_reachability  # noqa: E402


def fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def run_cli(allowlist, manifest="manifest.txt", executables=("exe.nm",)):
    return subprocess.run(
        [sys.executable, SCRIPT, "--nm-text",
         "--manifest", os.path.join(FIXTURES, manifest),
         "--allowlist", os.path.join(FIXTURES, allowlist),
         "--library", os.path.join(FIXTURES, "lib.nm"),
         "--executable", *[os.path.join(FIXTURES, e) for e in executables]],
        capture_output=True, text=True)


class ParseTest(unittest.TestCase):
    def test_library_functions_are_global_maras_text_symbols(self):
        functions = link_reachability.library_functions([fixture("lib.nm")])
        self.assertIn("maras::api::Unused(int)", functions)
        self.assertIn("maras::api::InlineUnused()", functions)  # weak
        # Local (t), data (D/R), undefined (U) and non-maras symbols are not
        # library functions.
        self.assertNotIn(
            "maras::api::(anonymous namespace)::Helper()", functions)
        self.assertNotIn("maras::api::kTable", functions)
        self.assertNotIn("maras::api::kName", functions)
        self.assertNotIn("maras::api::Declared()", functions)
        self.assertFalse(any(name.startswith("std::") for name in functions))
        self.assertEqual(len(functions), 8)

    def test_a_clone_counts_as_the_function_linked(self):
        linked = link_reachability.linked_names([fixture("exe.nm")])
        self.assertIn("maras::api::Cloned(int)", linked)
        self.assertIn("maras::api::Used(int)", linked)

    def test_allowlist_requires_a_reason(self):
        with self.assertRaises(ValueError):
            link_reachability.parse_entries(
                fixture("no_reason_allowlist.txt"), "allowlist")
        entries = link_reachability.parse_entries(
            fixture("allowlist.txt"), "allowlist")
        self.assertEqual(entries["maras::api::Allowlisted(int)"],
                         "exact-signature entry")


class CheckTest(unittest.TestCase):
    def check(self, allowlist):
        return link_reachability.check(
            [fixture("lib.nm")], [fixture("exe.nm")],
            link_reachability.parse_entries(fixture(allowlist), "allowlist"))

    def test_reports_every_unlinked_function_not_allowlisted(self):
        unreached, stale = self.check("allowlist.txt")
        self.assertEqual(unreached, ["maras::api::InlineUnused()",
                                     "maras::api::Unused(int)"])
        self.assertEqual(stale, [])

    def test_bare_name_covers_every_overload(self):
        unreached, _ = self.check("allowlist.txt")
        self.assertFalse(any("Overloaded" in name for name in unreached))

    def test_bare_name_matches_across_an_abi_tag(self):
        unreached, stale = self.check("allowlist.txt")
        self.assertFalse(any("Tagged" in name for name in unreached))
        self.assertNotIn("maras::api::Tagged", stale)

    def test_entry_naming_no_library_function_is_stale(self):
        unreached, stale = self.check("stale_allowlist.txt")
        self.assertEqual(unreached, [])
        self.assertEqual(stale, ["maras::api::Gone"])

    def test_exact_signature_does_not_cover_other_overloads(self):
        allowlist = {"maras::api::Overloaded(int)": "one overload only"}
        unreached, _ = link_reachability.check(
            [fixture("lib.nm")], [fixture("exe.nm")], allowlist)
        self.assertIn("maras::api::Overloaded(double)", unreached)
        self.assertNotIn("maras::api::Overloaded(int)", unreached)


class ManifestTest(unittest.TestCase):
    def test_a_row_requires_a_reason(self):
        with self.assertRaises(ValueError):
            link_reachability.parse_entries(
                fixture("no_reason_manifest.txt"), "manifest")
        rows = link_reachability.parse_entries(
            fixture("manifest.txt"), "manifest")
        self.assertEqual(rows, {"exe": "fixture program"})

    def test_program_without_a_row_and_stale_row(self):
        rows = link_reachability.parse_entries(
            fixture("stale_manifest.txt"), "manifest")
        self.assertEqual(
            link_reachability.check_manifest(["exe", "tool"], rows),
            (["tool"], ["gone"]))

    def test_counts_the_functions_only_each_program_links(self):
        counts = link_reachability.sole_keepers(
            [fixture("lib.nm")],
            {"exe": fixture("exe.nm"), "tool": fixture("tool.nm")})
        # Used(int) is linked by both; exe alone keeps Cloned(int), tool
        # alone Unused(int) and InlineUnused().
        self.assertEqual(counts, {"exe": 1, "tool": 2})


class CliTest(unittest.TestCase):
    def test_fails_naming_the_unreached_functions(self):
        proc = run_cli("allowlist.txt")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stdout.splitlines(), [
            "unreached: maras::api::InlineUnused()",
            "unreached: maras::api::Unused(int)",
        ])

    def test_fails_on_a_stale_entry(self):
        proc = run_cli("stale_allowlist.txt")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stdout,
                         "stale allowlist entry: maras::api::Gone\n")

    def test_clean_when_everything_is_linked_or_allowlisted(self):
        proc = run_cli("clean_allowlist.txt")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_allowlist_without_reason_is_a_usage_error(self):
        proc = run_cli("no_reason_allowlist.txt")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("expected `<name> => <reason>`", proc.stderr)

    def test_fails_on_a_built_program_without_a_row(self):
        proc = run_cli("clean_allowlist.txt",
                       executables=("exe.nm", "tool.nm"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stdout,
                         "program without a manifest row: tool\n")

    def test_fails_on_a_row_naming_no_built_program(self):
        proc = run_cli("clean_allowlist.txt", manifest="stale_manifest.txt")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stdout, "stale manifest row: gone\n")

    def test_row_without_reason_is_a_usage_error(self):
        proc = run_cli("clean_allowlist.txt",
                       manifest="no_reason_manifest.txt")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("manifest line 1: expected `<name> => <reason>`",
                      proc.stderr)

    def test_only_manifest_programs_are_roots(self):
        # tool.nm links Unused and InlineUnused, but without a row it keeps
        # nothing alive.
        proc = run_cli("allowlist.txt", executables=("exe.nm", "tool.nm"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stdout.splitlines(), [
            "unreached: maras::api::InlineUnused()",
            "unreached: maras::api::Unused(int)",
            "program without a manifest row: tool",
        ])

    def test_summary_counts_what_only_each_program_links(self):
        proc = run_cli("allowlist.txt", manifest="two_program_manifest.txt",
                       executables=("exe.nm", "tool.nm"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout, "")
        summary = proc.stderr.splitlines()
        self.assertIn("2 programs", summary[0])
        self.assertEqual(summary[1:], [
            "link-reachability: library functions only one program links:",
            "     2  tool",
            "     1  exe",
        ])

    def test_executable_directory_expands_to_its_elf_executables(self):
        with tempfile.TemporaryDirectory() as tmp:
            def make(name, content, executable):
                path = os.path.join(tmp, name)
                with open(path, "wb") as fh:
                    fh.write(content)
                if executable:
                    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
                return path

            elf = make("tool", b"\x7fELF rest", True)
            make("script.sh", b"#!/bin/sh\n", True)
            make("data.bin", b"\x7fELF but not executable", False)
            os.mkdir(os.path.join(tmp, "CMakeFiles"))
            self.assertEqual(
                list(link_reachability._expand_executables([tmp])), [elf])


if __name__ == "__main__":
    unittest.main()
