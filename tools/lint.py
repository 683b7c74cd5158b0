#!/usr/bin/env python3
"""Project-invariant lint for the logr tree.

Enforces the repo rules that clang-tidy cannot express — the invariants
earlier PRs paid for and that a grep can keep honest:

  1. no-bare-assert     src/ uses LOGR_CHECK/LOGR_DCHECK (util/check.h),
                        never <cassert> assert(): assert vanishes under
                        NDEBUG, so a release build would skip the guard.
  2. no-libc-rand       rand()/srand() break run-to-run determinism;
                        util/prng.h's SplitMix64/Pcg32 are the seeded,
                        portable generators every fit uses.
  3. no-unordered-iteration
                        Iterating a std::unordered_{map,set} yields a
                        platform/libc++-dependent order; anything that
                        feeds serialized output or clustering input must
                        iterate a deterministic container (PR 2/5 bought
                        shard-order independence with this). Membership
                        tests stay fine.
  4. avx-flag-confinement
                        No <immintrin.h>/<x86intrin.h> include in any
                        file and no -mavx* flag anywhere in
                        CMakeLists.txt, global or per-source. The tree
                        has one portable popcount kernel
                        (XorPopcountAccum, src/cluster/xor_popcount.cc)
                        built for the baseline ISA, so every build runs
                        the same code on every x86-64 host.
  5. header-guards      Every header uses the canonical
                        LOGR_<DIR>_<NAME>_H_ include guard derived from
                        its path (no #pragma once, no stale guard after
                        a file move).
  6. env-reads-confined getenv in src/ only in util/thread_pool.h
                        (LOGR_THREADS sizes the shared pool) and
                        core/distributed.cc (the crash hook, which the
                        CI smoke sets on `logr_cli distribute` and forked
                        workers inherit). Library results never
                        depend on the process environment; an operating
                        knob is a CLI flag or a bench_common read.
  7. paper-code-confinement
                        No src/ file built into `logr` includes a header
                        of the `logr_paper` library: the sources the
                        paper's figure programs use (baseline
                        summarizers, deviation sampler, synthesis,
                        tabular datasets, ...) stay out of what the
                        shipped tools link. The `logr_paper` source list
                        is read from LOGR_PAPER_PATTERNS in
                        CMakeLists.txt; a listed .cc's header is the
                        .h beside it.
  8. posix-only         No _WIN32 conditional in src/. The library is
                        POSIX-only (the serve daemon's sockets and poll,
                        the registry's directory scan, fork, mmap
                        and rename are used unconditionally), so a
                        non-POSIX branch is dead code no build compiles.

Usage: tools/lint.py [--root DIR] [FILES...]
With FILES, only those are checked (CI's changed-files mode); otherwise
the whole tree. Exit 0 clean, 1 with findings. Each finding prints
path:line, the offending source line, and a fix hint.
"""

import argparse
import glob
import os
import re
import sys

SRC_EXTENSIONS = (".cc", ".h", ".cpp")
GUARD_EXEMPT_DIRS = ()  # every header is held to the guard rule


class Finding:
    def __init__(self, path, line_no, line, rule, hint):
        self.path = path
        self.line_no = line_no
        self.line = line
        self.rule = rule
        self.hint = hint

    def __str__(self):
        loc = f"{self.path}:{self.line_no}" if self.line_no else self.path
        out = f"{loc}: [{self.rule}]\n"
        if self.line:
            out += f"    {self.line.rstrip()}\n"
        out += f"    fix: {self.hint}"
        return out


def strip_comments_and_strings(line):
    """Best-effort removal of // comments and string/char literals so the
    regexes below do not fire on documentation or messages."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    line = re.sub(r"//.*", "", line)
    return line


def check_bare_assert(path, lines, findings):
    if not path.startswith("src/"):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if re.search(r"(?<![\w_])assert\s*\(", line) and "static_assert" not in line:
            findings.append(Finding(
                path, i, raw, "no-bare-assert",
                "use LOGR_CHECK(cond) / LOGR_DCHECK(cond) from util/check.h "
                "— assert() compiles away under NDEBUG (the default Release "
                "build), so this guard would not run in production"))
        if "#include <cassert>" in line or "#include <assert.h>" in line:
            findings.append(Finding(
                path, i, raw, "no-bare-assert",
                "drop the <cassert> include; util/check.h provides the "
                "always-on LOGR_CHECK family"))


def check_libc_rand(path, lines, findings):
    if not path.startswith("src/"):
        return
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if re.search(r"(?<![\w_.:])s?rand\s*\(", line):
            findings.append(Finding(
                path, i, raw, "no-libc-rand",
                "use util/prng.h (SplitMix64/Pcg32 seeded from "
                "LogROptions::seed) — rand() is unseeded, "
                "platform-dependent, and breaks bit-reproducible fits"))


UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;=]*>\s+(\w+)")


def check_unordered_iteration(path, lines, findings):
    if not path.startswith("src/"):
        return
    # Pass 1: names declared as unordered containers in this file.
    names = set()
    for raw in lines:
        for m in UNORDERED_DECL.finditer(strip_comments_and_strings(raw)):
            names.add(m.group(1))
    if not names:
        return
    # Pass 2: range-for directly over one of those names. A site whose
    # order provably cannot leak (e.g. keys are collected then sorted on
    # the next line) carries `// lint:allow no-unordered-iteration (why)`
    # on the line or the line above.
    for i, raw in enumerate(lines, 1):
        if "lint:allow no-unordered-iteration" in raw or (
                i >= 2 and "lint:allow no-unordered-iteration" in lines[i - 2]):
            continue
        line = strip_comments_and_strings(raw)
        m = re.search(r"for\s*\(.*:\s*(\w+)\s*\)", line)
        if m and m.group(1) in names:
            findings.append(Finding(
                path, i, raw, "no-unordered-iteration",
                f"'{m.group(1)}' is a std::unordered_* container; its "
                "iteration order is hash/libc-dependent. Copy keys into a "
                "sorted std::vector (or use std::map) before iterating — "
                "anything downstream of this loop (serialized summaries, "
                "cluster seeds, shard hashes) must be bit-deterministic"))


def check_avx_confinement(root, files, findings):
    # (a) No x86 intrinsics header anywhere.
    for path in files:
        full = os.path.join(root, path)
        try:
            with open(full, errors="replace") as f:
                for i, raw in enumerate(f, 1):
                    if re.search(r'#\s*include\s*<(immintrin|x86intrin)\.h>',
                                 raw):
                        findings.append(Finding(
                            path, i, raw, "avx-flag-confinement",
                            "the tree has no intrinsics kernels; write the "
                            "loop in portable C++ like XorPopcountAccum "
                            "(src/cluster/xor_popcount.cc), using "
                            "__builtin_popcountll / __builtin_prefetch "
                            "rather than this header"))
        except OSError:
            pass
    # (b) No -mavx* flag in CMake, global or per-source.
    cmake_path = os.path.join(root, "CMakeLists.txt")
    if not os.path.exists(cmake_path):
        return
    with open(cmake_path) as f:
        for i, raw in enumerate(f, 1):
            if re.search(r"-mavx", raw.split("#", 1)[0]):
                findings.append(Finding(
                    "CMakeLists.txt", i, raw, "avx-flag-confinement",
                    "drop the -mavx* flag: every TU builds for the portable "
                    "baseline, so a binary runs on any x86-64 host and "
                    "there is no runtime CPU dispatch to keep in sync"))


# The library's only environment reads.
ENV_READS_ALLOWED = {
    "src/util/thread_pool.h",   # LOGR_THREADS
    "src/core/distributed.cc",  # LOGR_DISTRIBUTE_CRASH
}


def check_env_reads(path, lines, findings):
    if not path.startswith("src/") or path in ENV_READS_ALLOWED:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)
        if re.search(r"(?<![\w])(?:secure_)?getenv\s*\(", line):
            findings.append(Finding(
                path, i, raw, "env-reads-confined",
                "the library reads only LOGR_THREADS (util/thread_pool.h) "
                "and the distributed crash hook (core/distributed.cc) from "
                "the environment. Give an operating knob a CLI flag (an "
                "entry in its subcommand's flag table, parsed by "
                "util/flags.h) or read it in bench/bench_common.cc, and "
                "pass the value in through LogROptions or an argument"))


def paper_sources(root):
    """Repo-relative paths of the `logr_paper` sources and their headers,
    expanded from the LOGR_PAPER_PATTERNS list in CMakeLists.txt."""
    cmake_path = os.path.join(root, "CMakeLists.txt")
    if not os.path.exists(cmake_path):
        return None
    with open(cmake_path) as f:
        text = f.read()
    m = re.search(r"set\(LOGR_PAPER_PATTERNS\s+([^)]*)\)", text)
    if not m:
        return None
    paths = set()
    for pattern in m.group(1).split():
        for full in glob.glob(os.path.join(root, pattern)):
            rel = os.path.relpath(full, root)
            paths.add(rel)
            paths.add(os.path.splitext(rel)[0] + ".h")
    return paths or None


INCLUDE_LINE = re.compile(r'#\s*include\s*"([^"]+)"')


def check_paper_confinement(path, lines, paper, findings):
    if not path.startswith("src/") or path in paper:
        return
    for i, raw in enumerate(lines, 1):
        m = INCLUDE_LINE.search(raw)
        if m and "src/" + m.group(1) in paper:
            findings.append(Finding(
                path, i, raw, "paper-code-confinement",
                f"{m.group(1)} belongs to the logr_paper library "
                "(LOGR_PAPER_PATTERNS in CMakeLists.txt), which `logr` "
                "does not link. Keep paper-only code out of the shipped "
                "library: move the caller into bench/ or a logr_paper "
                "source, or move the code it needs out of that list"))


WIN32_CONDITIONAL = re.compile(r"^\s*#\s*(?:if|ifdef|ifndef|elif)\b.*\b_WIN32\b")


def check_posix_only(path, lines, findings):
    if not path.startswith("src/"):
        return
    for i, raw in enumerate(lines, 1):
        if WIN32_CONDITIONAL.search(raw):
            findings.append(Finding(
                path, i, raw, "posix-only",
                "logr builds only on POSIX: delete the non-POSIX branch and "
                "include the POSIX headers unconditionally"))


def expected_guard(path):
    # src/cluster/nn_chain.h -> LOGR_CLUSTER_NN_CHAIN_H_
    rel = re.sub(r"^src/", "", path)
    return "LOGR_" + re.sub(r"[/.]", "_", rel).upper() + "_"


def check_header_guards(path, lines, findings):
    if not path.endswith(".h") or not path.startswith("src/"):
        return
    guard = expected_guard(path)
    text = "".join(lines)
    if "#pragma once" in text:
        for i, raw in enumerate(lines, 1):
            if "#pragma once" in raw:
                findings.append(Finding(
                    path, i, raw, "header-guards",
                    f"this tree uses include guards, not #pragma once; "
                    f"replace with #ifndef {guard} / #define {guard} ... "
                    f"#endif  // {guard}"))
        return
    ifndef = re.search(r"#ifndef\s+(\w+)", text)
    define = re.search(r"#define\s+(\w+)", text)
    if not ifndef or not define or ifndef.group(1) != define.group(1):
        findings.append(Finding(
            path, ifndef and text[:ifndef.start()].count("\n") + 1,
            ifndef.group(0) if ifndef else "",
            "header-guards",
            f"missing or mismatched include guard; expected #ifndef {guard}"))
        return
    if ifndef.group(1) != guard:
        line_no = text[:ifndef.start()].count("\n") + 1
        findings.append(Finding(
            path, line_no, ifndef.group(0), "header-guards",
            f"guard {ifndef.group(1)} does not match the file's path; "
            f"rename to {guard} (stale guards collide after file moves)"))


def collect_files(root):
    files = []
    for sub in ("src", "tests", "bench", "examples", "fuzz", "tools"):
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in names:
                if name.endswith(SRC_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append(os.path.relpath(full, root))
    return sorted(files)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of tools/)")
    ap.add_argument("files", nargs="*",
                    help="restrict to these files (repo-relative); "
                         "default: whole tree")
    args = ap.parse_args()

    root = args.root
    if args.files:
        files = [os.path.relpath(os.path.abspath(f), root)
                 if os.path.isabs(f) else f for f in args.files]
        files = [f for f in files if f.endswith(SRC_EXTENSIONS)]
    else:
        files = collect_files(root)

    findings = []
    paper = paper_sources(root)
    if paper is None:
        findings.append(Finding(
            "CMakeLists.txt", 0, "", "paper-code-confinement",
            "no set(LOGR_PAPER_PATTERNS ...) list naming existing "
            "sources; rule 7 reads the logr_paper sources from it"))
        paper = set()
    for path in files:
        full = os.path.join(root, path)
        try:
            with open(full, errors="replace") as f:
                lines = f.readlines()
        except OSError as e:
            print(f"lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        check_bare_assert(path, lines, findings)
        check_libc_rand(path, lines, findings)
        check_unordered_iteration(path, lines, findings)
        check_header_guards(path, lines, findings)
        check_env_reads(path, lines, findings)
        check_paper_confinement(path, lines, paper, findings)
        check_posix_only(path, lines, findings)
    check_avx_confinement(root, files, findings)

    for f in findings:
        print(f)
        print()
    if findings:
        print(f"lint: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
