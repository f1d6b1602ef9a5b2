#!/usr/bin/env python3
"""maras-lint: project-invariant checks the compiler cannot express.

MARAS's correctness story rests on invariants that are documented in
DESIGN.md but, before this tool, enforced only by review: mining code
uses the flat arena tables instead of node-based hash containers, long
governed loops poll their RunContext, allocation stays inside the arena and
the counting allocator, headers keep a uniform guard style, and StatusOr
temporaries are never dereferenced unchecked. maras-lint turns each of
those into a machine-checked rule, run as a `lint`-labeled ctest.

Usage:
    maras_lint.py --root <repo-root> [--rule RULE ...] [paths...]
    maras_lint.py --list-rules

With no explicit paths the tracked source roots (src/, tests/, bench/,
examples/, fuzz/, tools/) are scanned; tools/lint/testdata is always
excluded because its fixtures deliberately violate the rules. Only such a
whole-tree scan runs `reachability`, which follows includes from the
shipped programs (tools/, examples/, bench/, perfbench/) and fails on any
src/ header they never reach; its exceptions live in
REACHABILITY_ALLOWLIST, not in suppression comments. The same question one
level down, per function, needs the linker: see link_reachability.py.

Suppression: a violating line (or the line directly above it) may carry
    // maras-lint: disable=<rule>[,<rule>...]
Every suppression should sit next to a comment justifying it; suppressions
are grep-able so the audit trail stays reviewable.

Exit status: 0 when clean, 1 when any violation fired, 2 on usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

RULES = {
    "mining-flat-containers":
        "std::unordered_map/set in a src/mining file other than "
        "item_dictionary.{h,cc} (use mining/flat_table.h or a dense ItemId "
        "table; the string-keyed, build-time item dictionary is the one "
        "exemption)",
    "no-raw-new-delete":
        "raw new/delete expression outside bench/alloc_counter and the "
        "`static ... = new` leaky-singleton idiom",
    "runcontext-polling":
        "function takes a RunContext and loops but never polls "
        "Check()/Charge() or forwards the context",
    "header-guard":
        "include guard does not match the MARAS_<PATH>_H_ convention",
    "no-using-namespace-header":
        "`using namespace` at file or namespace scope in a header",
    "statusor-unchecked-deref":
        ".value() chained directly onto a call result (an unchecked "
        "temporary; bind the StatusOr, test ok(), then consume with "
        "std::move(x).value())",
    "no-raw-subprocess":
        "raw fork/exec*/system/popen outside src/util/subprocess.* (spawn "
        "through ChildProcess so EINTR/SIGPIPE/zombie hygiene is audited "
        "in one place)",
    "serve-validated-access":
        "reinterpret_cast, memcpy/memmove or data()-pointer arithmetic in "
        "src/serve outside the accessor layer (bounded_view/mapped_file); "
        "snapshot bytes are hostile and must be read through BoundedView",
    "mutex-annotations":
        "raw std::mutex/std::shared_mutex member outside src/util/ (use the "
        "capability-annotated maras::Mutex/SharedMutex wrappers), or a "
        "mutex member that no thread-safety annotation ever names "
        "(GUARDED_BY/REQUIRES/ACQUIRE/EXCLUDES...) — a lock outside the "
        "capability model is invisible to clang -Wthread-safety",
    "reachability":
        "src/ header that no tool, example, bench or perfbench file "
        "reaches through includes (code only tests or fuzzers use is "
        "test code, or dead); whole-tree scans only",
}

# Every file under src/mining must use flat (or dense ItemId-indexed)
# containers — hash iteration order would leak nondeterminism into mined
# results — except the item dictionary: it interns strings once, at build
# time, and its string-keyed index never reaches a result ordering.
MINING_NODE_CONTAINER_EXEMPT = {"item_dictionary.h", "item_dictionary.cc"}

# Files allowed to spell raw new/delete: the counting global allocator
# must call the real allocation primitives.
NEW_DELETE_ALLOWED = {"bench/alloc_counter.cc", "bench/alloc_counter.h"}

# The one sanctioned home of raw process-control syscalls. Everyone else
# spawns through ChildProcess (util/subprocess.h).
SUBPROCESS_ALLOWED = {"src/util/subprocess.cc", "src/util/subprocess.h"}

# The serving path treats every snapshot byte as hostile; these are the
# only files allowed to touch raw memory — BoundedView's checked accessors
# and the mmap wrapper whose view() is the single cast point.
SERVE_RAW_ACCESS_ALLOWED = {
    "src/serve/bounded_view.h",
    "src/serve/mapped_file.h",
    "src/serve/mapped_file.cc",
}

# The capability-annotated wrapper layer itself: the one place a raw std
# mutex member may live (inside maras::Mutex/SharedMutex), and the one
# place a mutex member needs no GUARDED_BY user.
MUTEX_WRAPPER_ALLOWED = {
    "src/util/mutex.h",
    "src/util/thread_annotations.h",
}

# The programs the project ships. A src/ header is live only if one of
# these reaches it; tests/ and fuzz/ check code, they do not keep it alive.
REACHABILITY_ROOTS = ("tools", "examples", "bench", "perfbench")

# src/ headers kept although no root reaches them: path -> reason.
REACHABILITY_ALLOWLIST: dict[str, str] = {}

SCAN_ROOTS = ("src", "tests", "bench", "examples", "fuzz", "tools")
EXCLUDE_PARTS = ("tools/lint/testdata",)

SOURCE_EXTS = (".h", ".cc", ".cpp")


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    detail: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


# ---------------------------------------------------------------------------
# Lexical helpers
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"maras-lint:\s*disable=([A-Za-z0-9_,-]+)")


def suppressed_rules(lines: list[str]) -> list[set[str]]:
    """Per-line (0-based) set of suppressed rule names.

    A `maras-lint: disable=` comment suppresses its own line and the line
    below it, so the annotation can sit above the violating statement.
    """
    out: list[set[str]] = [set() for _ in lines]
    for i, line in enumerate(lines):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        out[i] |= rules
        if i + 1 < len(lines):
            out[i + 1] |= rules
    return out


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces (newlines survive) so that line and
    column arithmetic on the stripped text maps back to the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]{0,16})\(', text[i - 1:])
                if m:
                    delim = m.group(1)
                    end = text.find(")" + delim + '"', i)
                    if end == -1:
                        end = n
                    for j in range(i, min(end + len(delim) + 2, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = min(end + len(delim) + 2, n)
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if text[i] != "\n":
                        out[i] = " "
                    i += 1
                    if i < n:
                        if text[i] != "\n":
                            out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, original text, stripped text) and yields
# (line, detail) pairs; suppression filtering happens in the driver.
# ---------------------------------------------------------------------------

_UNORDERED_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\b")


def rule_mining_flat_containers(relpath, text, stripped):
    parts = relpath.replace(os.sep, "/").split("/")
    if parts[:2] != ["src", "mining"] or \
            parts[-1] in MINING_NODE_CONTAINER_EXEMPT:
        return
    for m in _UNORDERED_RE.finditer(stripped):
        yield (line_of(stripped, m.start()),
               "node-based hash container in src/mining; use "
               "mining/flat_table.h (FlatItemsetIndex/ItemsetFlatSet or a "
               "dense ItemId table)")


_NEW_RE = re.compile(r"\bnew\b")
_DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?")
_DELETED_FN_RE = re.compile(r"=\s*delete\b")
_OPERATOR_NEW_DELETE_RE = re.compile(r"\boperator\s+(?:new|delete)\b")
_STATIC_SINGLETON_RE = re.compile(r"\bstatic\b[^;{]*=\s*new\b")


def rule_no_raw_new_delete(relpath, text, stripped):
    rel = relpath.replace(os.sep, "/")
    if rel in NEW_DELETE_ALLOWED:
        return
    if not rel.startswith(("src/", "bench/", "examples/", "fuzz/")):
        return
    lines = stripped.splitlines()
    for i, line in enumerate(lines, start=1):
        if _OPERATOR_NEW_DELETE_RE.search(line):
            yield (i, "operator new/delete replacement outside "
                      "bench/alloc_counter")
            continue
        for m in _NEW_RE.finditer(line):
            if _OPERATOR_NEW_DELETE_RE.search(line):
                break
            if _STATIC_SINGLETON_RE.search(line):
                # `static const auto* x = new ...` leaky singleton:
                # intentionally immortal, avoids destruction-order fiasco.
                break
            yield (i, "raw new expression; allocate through the arena or a "
                      "standard container")
            break
        for m in _DELETE_RE.finditer(line):
            before = line[:m.start()]
            if _DELETED_FN_RE.search(before + "delete"):
                continue  # `= delete;` deleted function, not an expression
            yield (i, "raw delete expression; owning containers or the "
                      "arena manage lifetime")
            break


_RUNCTX_PARAM_RE = re.compile(
    r"\(([^()]*\bRunContext\b[^()]*)\)\s*(?:const\s*)?\{")
_RUNCTX_NAME_RE = re.compile(r"RunContext\s*[&*]?\s*(\w+)")
_LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")


def _function_bodies_with_runcontext(stripped):
    """Yields (body_start_offset, body_text, ctx_param_name)."""
    for m in _RUNCTX_PARAM_RE.finditer(stripped):
        params = m.group(1)
        name_m = _RUNCTX_NAME_RE.search(params)
        if not name_m:
            continue
        open_brace = m.end() - 1
        depth = 0
        i = open_brace
        n = len(stripped)
        while i < n:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        yield open_brace, stripped[open_brace:i + 1], name_m.group(1)


def rule_runcontext_polling(relpath, text, stripped):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or not rel.endswith((".cc", ".cpp")):
        return
    for start, body, ctx in _function_bodies_with_runcontext(stripped):
        if not _LOOP_RE.search(body):
            continue
        polls = re.search(
            r"\b{0}\s*[.-]>?\s*(?:Check|Charge)\s*\(".format(re.escape(ctx)),
            body)
        # Forwarding the context into a callee (which polls) also counts:
        # the context identifier appearing as a call argument.
        forwards = re.search(
            r"[(,]\s*&?\s*{0}\s*[,)]".format(re.escape(ctx)), body)
        if not polls and not forwards:
            yield (line_of(stripped, start),
                   f"function takes RunContext `{ctx}` and loops but never "
                   f"calls {ctx}.Check()/{ctx}.Charge() nor forwards it; "
                   "unbounded work must stay cancellable")


_GUARD_IF_RE = re.compile(r"^\s*#ifndef\s+(\w+)\s*$", re.M)
_GUARD_DEF_RE = re.compile(r"^\s*#define\s+(\w+)\s*$", re.M)
_PRAGMA_ONCE_RE = re.compile(r"^\s*#pragma\s+once\b", re.M)


def expected_guard(relpath):
    rel = relpath.replace(os.sep, "/")
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    stem = re.sub(r"[^A-Za-z0-9]", "_", rel).upper()
    return f"MARAS_{stem}_"


def rule_header_guard(relpath, text, stripped):
    if not relpath.endswith(".h"):
        return
    want = expected_guard(relpath)
    if _PRAGMA_ONCE_RE.search(stripped):
        yield (1, f"#pragma once; use the include-guard convention {want}")
        return
    m_if = _GUARD_IF_RE.search(stripped)
    m_def = _GUARD_DEF_RE.search(stripped)
    if not m_if or not m_def:
        yield (1, f"missing include guard {want}")
        return
    if m_if.group(1) != want or m_def.group(1) != want:
        yield (line_of(stripped, m_if.start()),
               f"include guard {m_if.group(1)} does not match convention "
               f"{want}")


_USING_NS_RE = re.compile(r"\busing\s+namespace\b")


def rule_no_using_namespace_header(relpath, text, stripped):
    if not relpath.endswith(".h"):
        return
    for m in _USING_NS_RE.finditer(stripped):
        yield (line_of(stripped, m.start()),
               "`using namespace` in a header leaks into every includer")


_CHAINED_VALUE_RE = re.compile(r"\)\s*\.\s*value\s*\(\s*\)")


def _callee_is_std_move(stripped, close_paren):
    """True when the call ending at `close_paren` is std::move(...)."""
    depth = 0
    i = close_paren
    while i >= 0:
        c = stripped[i]
        if c == ")":
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i <= 0:
        return False
    head = stripped[:i].rstrip()
    return bool(re.search(r"(?:\bstd\s*::\s*)?\bmove$", head))


def rule_statusor_unchecked_deref(relpath, text, stripped):
    for m in _CHAINED_VALUE_RE.finditer(stripped):
        if _callee_is_std_move(stripped, m.start()):
            continue  # std::move(x).value(): the checked-consume idiom
        yield (line_of(stripped, m.start()),
               "`.value()` on an unchecked call temporary; bind the "
               "StatusOr, branch on ok(), then std::move(x).value()")


_RAW_SUBPROCESS_RE = re.compile(
    r"\b(fork|vfork|execl|execlp|execle|execv|execvp|execvpe|execve|"
    r"system|popen|posix_spawn|posix_spawnp)\s*\(")


def rule_no_raw_subprocess(relpath, text, stripped):
    rel = relpath.replace(os.sep, "/")
    if rel in SUBPROCESS_ALLOWED:
        return
    for m in _RAW_SUBPROCESS_RE.finditer(stripped):
        # Member calls like `machine.fork(...)` are not the libc syscall.
        head = stripped[:m.start()].rstrip()
        if head.endswith((".", "->")):
            continue
        yield (line_of(stripped, m.start()),
               f"raw {m.group(1)}() call; process plumbing lives in "
               "util/subprocess.h (ChildProcess::Spawn) so EINTR, SIGPIPE "
               "and zombie handling are audited once")


_REINTERPRET_RE = re.compile(r"\breinterpret_cast\b")
_MEMCPY_RE = re.compile(r"\bmem(?:cpy|move)\s*\(")
_DATA_ARITH_RE = re.compile(r"\bdata\s*\(\s*\)\s*[+-](?![+-])")


def rule_serve_validated_access(relpath, text, stripped):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/serve/") or rel in SERVE_RAW_ACCESS_ALLOWED:
        return
    for regex, what in ((_REINTERPRET_RE, "reinterpret_cast"),
                        (_MEMCPY_RE, "memcpy/memmove"),
                        (_DATA_ARITH_RE, "data()-pointer arithmetic")):
        for m in regex.finditer(stripped):
            yield (line_of(stripped, m.start()),
                   f"{what} outside the accessor layer; snapshot bytes are "
                   "hostile — go through BoundedView "
                   "(serve/bounded_view.h), the only sanctioned byte-access "
                   "surface")


_MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?P<type>(?:maras\s*::\s*)?(?:Mutex|SharedMutex)\b"
    r"|std\s*::\s*(?:shared_|recursive_|timed_|recursive_timed_)?mutex\b)"
    r"\s+(?P<name>\w+)\s*(?:ACQUIRED_(?:BEFORE|AFTER)\s*\([^;]*\))?\s*;")
_CLASS_HEAD_RE = re.compile(r"\b(class|struct|union)\s+[A-Za-z_]\w*[^;{()]*$")
_NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b[^;{]*$")
_ENUM_HEAD_RE = re.compile(r"\benum\b[^;{]*$")


def _scope_kinds_per_line(stripped):
    """For each 0-based line, the innermost scope kind at line start.

    Kinds: "top", "namespace", "class", "block" (function bodies, loops,
    initializer lists...). A lexical approximation: each `{` is classified
    by the text preceding it — class/struct/union head, namespace head, or
    anything else (block). Good enough to tell a member declaration (inside
    a class body, outside any nested block) from a function-local one.
    """
    kinds = []
    stack = []
    i = 0
    line_start = 0
    n = len(stripped)
    kinds.append("top")
    for i in range(n):
        c = stripped[i]
        if c == "\n":
            kinds.append(stack[-1] if stack else "top")
            line_start = i + 1
        elif c == "{":
            head = stripped[max(0, i - 400):i].rstrip()
            if _CLASS_HEAD_RE.search(head):
                stack.append("class")
            elif _NAMESPACE_HEAD_RE.search(head):
                stack.append("namespace")
            elif _ENUM_HEAD_RE.search(head):
                stack.append("enum")
            else:
                stack.append("block")
        elif c == "}":
            if stack:
                stack.pop()
    del line_start
    return kinds


_ANNOTATION_USER_TEMPLATE = (
    r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|"
    r"ACQUIRE_SHARED|RELEASE|RELEASE_SHARED|TRY_ACQUIRE|TRY_ACQUIRE_SHARED|"
    r"EXCLUDES|ACQUIRED_BEFORE|ACQUIRED_AFTER|ASSERT_CAPABILITY|"
    r"ASSERT_SHARED_CAPABILITY|RETURN_CAPABILITY)\s*\([^)]*\b{0}\b")


def rule_mutex_annotations(relpath, text, stripped):
    rel = relpath.replace(os.sep, "/")
    if not rel.startswith("src/") or rel in MUTEX_WRAPPER_ALLOWED:
        return
    lines = stripped.splitlines()
    scope = _scope_kinds_per_line(stripped)
    for i, line in enumerate(lines):
        if i < len(scope) and scope[i] != "class":
            continue  # function-local mutexes guard locals; members only
        m = _MUTEX_DECL_RE.match(line)
        if not m:
            continue
        mutex_type = re.sub(r"\s+", "", m.group("type"))
        name = m.group("name")
        if mutex_type.startswith("std::"):
            if not rel.startswith("src/util/"):
                yield (i + 1,
                       f"raw {mutex_type} member `{name}`; use the "
                       "capability-annotated maras::Mutex/SharedMutex "
                       "(util/mutex.h) so clang -Wthread-safety can check "
                       "lock discipline")
                continue
        if not re.search(_ANNOTATION_USER_TEMPLATE.format(re.escape(name)),
                         stripped):
            yield (i + 1,
                   f"mutex member `{name}` is never named by a "
                   "thread-safety annotation (GUARDED_BY/REQUIRES/"
                   "EXCLUDES...); a lock that guards nothing statically is "
                   "either dead or hiding unguarded state")


_QUOTED_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.M)


def _source_files_under(root, top):
    """Root-relative paths of the source files under root/top."""
    rels = (os.path.relpath(path, root).replace(os.sep, "/")
            for path in collect_files(root, [top]))
    return [rel for rel in rels
            if not any(part in rel for part in EXCLUDE_PARTS)]


def _src_includes(root, rel):
    """The src/ files that `rel` includes. Quoted includes name a path
    relative to src/, the library's include root."""
    with open(os.path.join(root, rel), encoding="utf-8",
              errors="replace") as fh:
        text = fh.read()
    for include in _QUOTED_INCLUDE_RE.findall(text):
        target = "src/" + include
        if os.path.isfile(os.path.join(root, target)):
            yield target


def unreached_src_headers(root, allowlist=REACHABILITY_ALLOWLIST):
    """src/ headers that no REACHABILITY_ROOTS file reaches, minus
    `allowlist`.

    A header is reached when a root file includes it, or when a reached
    src/ file does; a reached header also reaches its paired .cc, so what
    the implementation includes is live too.
    """
    frontier = [rel for top in REACHABILITY_ROOTS
                for rel in _source_files_under(root, top)]
    reached = set()
    while frontier:
        for header in _src_includes(root, frontier.pop()):
            if header in reached:
                continue
            reached.add(header)
            frontier.append(header)
            paired = os.path.splitext(header)[0] + ".cc"
            if os.path.isfile(os.path.join(root, paired)):
                frontier.append(paired)
    return [rel for rel in _source_files_under(root, "src")
            if rel.endswith(".h") and rel not in reached
            and rel not in allowlist]


def rule_reachability(root):
    for header in unreached_src_headers(root):
        yield Violation(
            header, 1, "reachability",
            "no tool, example, bench or perfbench file reaches this header, "
            "directly or through reached src/ files; delete it, move it to "
            "tests/ if only tests use it, or allowlist it with a reason")


RULE_FUNCS = {
    "mining-flat-containers": rule_mining_flat_containers,
    "no-raw-new-delete": rule_no_raw_new_delete,
    "runcontext-polling": rule_runcontext_polling,
    "header-guard": rule_header_guard,
    "no-using-namespace-header": rule_no_using_namespace_header,
    "statusor-unchecked-deref": rule_statusor_unchecked_deref,
    "no-raw-subprocess": rule_no_raw_subprocess,
    "serve-validated-access": rule_serve_validated_access,
    "mutex-annotations": rule_mutex_annotations,
}

# Rules over the include graph of the whole tree rather than one file.
TREE_RULE_FUNCS = {
    "reachability": rule_reachability,
}

assert set(RULE_FUNCS) | set(TREE_RULE_FUNCS) == set(RULES)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root, explicit_paths):
    files = []
    if explicit_paths:
        for p in explicit_paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                for dirpath, _dirnames, filenames in os.walk(ap):
                    for f in sorted(filenames):
                        if f.endswith(SOURCE_EXTS):
                            files.append(os.path.join(dirpath, f))
            elif ap.endswith(SOURCE_EXTS):
                files.append(ap)
        return files
    bases = [os.path.join(root, top) for top in SCAN_ROOTS
             if os.path.isdir(os.path.join(root, top))]
    # A root with none of the standard source roots (a fixture tree, an
    # arbitrary directory) is scanned wholesale.
    if not bases:
        bases = [root]
    for base in bases:
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, f))
    return files


def lint_file(root, path, active_rules):
    relpath = os.path.relpath(path, root)
    rel = relpath.replace(os.sep, "/")
    if any(part in rel for part in EXCLUDE_PARTS):
        return []
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as e:
        return [Violation(rel, 1, "io", f"unreadable: {e}")]
    stripped = strip_comments_and_strings(text)
    suppress = suppressed_rules(text.splitlines())
    out = []
    for rule in active_rules:
        if rule not in RULE_FUNCS:
            continue
        for line, detail in RULE_FUNCS[rule](relpath, text, stripped) or ():
            idx = line - 1
            if 0 <= idx < len(suppress) and rule in suppress[idx]:
                continue
            out.append(Violation(rel, line, rule, detail))
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--rule", action="append", dest="rules", metavar="RULE",
                    help="run only this rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: the "
                         "tracked source roots)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return 0

    active = args.rules or sorted(RULES)
    unknown = [r for r in active if r not in RULES]
    if unknown:
        print(f"maras-lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    violations = []
    for path in collect_files(root, args.paths):
        violations.extend(lint_file(root, path, active))
    if not args.paths:
        for rule in active:
            if rule in TREE_RULE_FUNCS:
                violations.extend(TREE_RULE_FUNCS[rule](root))

    for v in violations:
        print(v.render())
    if violations:
        print(f"maras-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
