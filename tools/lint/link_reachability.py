#!/usr/bin/env python3
"""link-reachability: library functions that no shipped program links.

maras-lint's `reachability` rule works on whole headers: a src/ header
that a tool, example, bench or perfbench file includes is live, along with
everything it declares. This check works one level down, on functions, and
lets the linker decide. Build the programs with

    -ffunction-sections -fdata-sections   (compile)
    -Wl,--gc-sections                     (link)

so that every function the program never calls is dropped from its
executable, then run

    link_reachability.py --manifest tools/lint/shipped_programs.txt \\
        --allowlist tools/lint/link_reachability_allowlist.txt \\
        --library build-reachability/src/*/libmaras_*.a \\
        --executable build-reachability/tools build-reachability/examples \\
                     build-reachability/bench build-reachability-perfbench

The manifest lists the shipped programs, the roots of the check, one row
each: `<program> => <what it serves>`. A built program with no row fails
the check, and so does a row that names no built program.

It runs `nm -C --defined-only` over each input and fails on every global
(`T` or `W`) `maras::` function that a library object defines and no
executable contains, unless the allowlist names it with a reason. An
allowlist entry that names no library function is stale and fails too.
A directory given to --executable stands for every ELF executable directly
inside it. With --nm-text the inputs are files holding captured
`nm -C --defined-only` output instead of binaries (the self-test's
fixtures); a program's name is then its file name without `.nm`.

The summary on stderr also counts, for each program, the library functions
that only that program links: the code that would go with it.

A function counts as linked when any executable defines a symbol of that
name, including a compiler clone of it (`... [clone .constprop.0]`).

Known blind spot: a header-inline function that is inlined at every call
and never emitted out of line appears in no library object, so the check
cannot see it, used or not.

Allowlist format: one entry per line, `<name> => <reason>`. The name is
either a full demangled signature or a qualified name without its
parameter list, which covers every overload; ABI tags such as `[abi:cxx11]`
are left out of both. `#` starts a comment line. The manifest has the same
format, with a program's file name on the left.

Exit status: 0 when clean, 1 on unreached functions, stale allowlist
entries, programs without a manifest row or stale rows, 2 on usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

# `<address> <type> <name>`; nm prints archive members as `member.o:`.
_NM_LINE_RE = re.compile(r"^[0-9a-fA-F]+ ([A-Za-z]) (.+)$")
_CLONE_SUFFIX_RE = re.compile(r"(?: \[clone [^\]]*\])+$")
_ABI_TAG_RE = re.compile(r"\[abi:[^\]]*\]")

GLOBAL_FUNCTION_TYPES = {"T", "W"}


def parse_nm(text):
    """(type, demangled name) for every defined symbol in nm output."""
    for line in text.splitlines():
        m = _NM_LINE_RE.match(line.rstrip())
        if m:
            yield m.group(1), m.group(2)


def library_functions(nm_texts):
    """Global maras:: functions the library objects define."""
    return {name for text in nm_texts for kind, name in parse_nm(text)
            if kind in GLOBAL_FUNCTION_TYPES and name.startswith("maras::")}


def linked_names(nm_texts):
    """Every defined symbol of the executables, clone suffixes removed."""
    return {_CLONE_SUFFIX_RE.sub("", name)
            for text in nm_texts for _, name in parse_nm(text)}


def parse_entries(text, kind):
    """name -> reason. Raises ValueError on an entry without a reason."""
    entries = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" => ")
        if not sep or not name.strip() or not reason.strip():
            raise ValueError(
                f"{kind} line {number}: expected `<name> => <reason>`, "
                f"got {line!r}")
        entries[name.strip()] = reason.strip()
    return entries


def _allowed_by(name, entry):
    # ABI tags ("Names[abi:cxx11](...)") are not part of what an entry
    # spells.
    name = _ABI_TAG_RE.sub("", name)
    return name == entry or name.startswith(entry + "(")


def check(library_nm, executable_nm, allowlist):
    """(unreached functions, stale allowlist entries), both sorted."""
    defined = library_functions(library_nm)
    linked = linked_names(executable_nm)
    unreached = sorted(
        name for name in defined - linked
        if not any(_allowed_by(name, entry) for entry in allowlist))
    stale = sorted(
        entry for entry in allowlist
        if not any(_allowed_by(name, entry) for name in defined))
    return unreached, stale


def check_manifest(programs, manifest):
    """(built programs without a row, rows naming no built program)."""
    return (sorted(set(programs) - set(manifest)),
            sorted(set(manifest) - set(programs)))


def sole_keepers(library_nm, executable_nm_by_program):
    """program -> how many library functions only that program links."""
    defined = library_functions(library_nm)
    kept = {program: defined & linked_names([text])
            for program, text in executable_nm_by_program.items()}
    counts = {}
    for program, functions in kept.items():
        others = set().union(*(f for p, f in kept.items() if p != program))
        counts[program] = len(functions - others)
    return counts


def program_name(path, nm_text):
    name = os.path.basename(path)
    if nm_text and name.endswith(".nm"):
        name = name[:-len(".nm")]
    return name


def _is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as fh:
        return fh.read(4) == b"\x7fELF"


def _expand_executables(paths):
    for path in paths:
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                full = os.path.join(path, entry)
                if _is_elf_executable(full):
                    yield full
        else:
            yield path


def _read_nm(path, nm_text):
    if nm_text:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    proc = subprocess.run(["nm", "-C", "--defined-only", path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise OSError(f"nm failed on {path}: {proc.stderr.strip()}")
    return proc.stdout


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--library", nargs="+", required=True,
                        help="src/ static libraries or objects")
    parser.add_argument("--executable", nargs="+", required=True,
                        help="production executables, or directories of them")
    parser.add_argument("--manifest", required=True,
                        help="the shipped programs, one "
                             "`<program> => <what it serves>` row each")
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("--nm-text", action="store_true",
                        help="inputs are captured `nm -C --defined-only` "
                             "output, not binaries")
    args = parser.parse_args(argv)

    executables = (args.executable if args.nm_text
                   else list(_expand_executables(args.executable)))
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = parse_entries(fh.read(), "manifest")
        with open(args.allowlist, encoding="utf-8") as fh:
            allowlist = parse_entries(fh.read(), "allowlist")
        library_nm = [_read_nm(p, args.nm_text) for p in args.library]
        executable_nm = {program_name(p, args.nm_text):
                         _read_nm(p, args.nm_text) for p in executables}
    except (OSError, ValueError) as err:
        print(f"link-reachability: {err}", file=sys.stderr)
        return 2
    if not executable_nm:
        print("link-reachability: no executables given", file=sys.stderr)
        return 2

    without_row, stale_rows = check_manifest(executable_nm, manifest)
    roots = {program: text for program, text in executable_nm.items()
             if program in manifest}
    unreached, stale = check(library_nm, list(roots.values()), allowlist)
    for name in unreached:
        print(f"unreached: {name}")
    for entry in stale:
        print(f"stale allowlist entry: {entry}")
    for program in without_row:
        print(f"program without a manifest row: {program}")
    for program in stale_rows:
        print(f"stale manifest row: {program}")
    print(f"link-reachability: {len(roots)} programs, "
          f"{len(allowlist)} allowlisted, {len(unreached)} unreached, "
          f"{len(stale)} stale, {len(without_row)} without a row, "
          f"{len(stale_rows)} stale rows", file=sys.stderr)
    counts = sole_keepers(library_nm, roots)
    print("link-reachability: library functions only one program links:",
          file=sys.stderr)
    for program in sorted(counts, key=lambda p: (-counts[p], p)):
        print(f"  {counts[program]:4d}  {program}", file=sys.stderr)
    return 1 if unreached or stale or without_row or stale_rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
