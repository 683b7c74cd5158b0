#!/usr/bin/env python3
"""Fails when liblogr.a holds a logr:: function no shipped binary reaches.

`logr` is what the shipped binaries link: logr_cli, logr_serve, the
other examples/ programs and the fuzz corpus drivers. A function that
only tests, figure benches or paper code read belongs in logr_oracles
(tests/oracles/) or logr_paper, and a function nothing reads is deleted.

The check configures a Debug (-O0) sub-build of those shipped targets
alone (tests and benches off), compiled with -ffunction-sections and
linked with -Wl,--gc-sections and a map file per binary. It then reads
every .text section of every liblogr.a member (readelf) and, from each
map's memory map, the input sections the link kept: a member the link
never pulled in, or a section it discarded, is not listed there. A
section is reached when some binary keeps it. COMDAT sections (inline
and template code, one copy per object) count as reached when any copy
is kept, the binary's own objects included.

Every unreached function whose mangled name starts _ZN4logr or
_ZNK4logr fails the check, named with its object file, unless ALLOWLIST
lists it. Rule-filtered, never listed: constructors, destructors,
operator= and compiler clones (.constprop, .isra, .part, .cold). An
ALLOWLIST entry that is reached, or no longer in liblogr.a, fails as
stale. The build must be -O0: an optimized link inlines or clones
reached callees and reports them unreached.

Usage:
  tools/shipped_reach.py --source . --build build/shipped_reach
  (ctest runs it as shipped_reach_test, passing the parent build's
  generator and compiler; later runs reuse the sub-build)

Exit 0 clean, 1 with findings, 2 when the sub-build or a tool fails.
"""

import argparse
import os
import re
import subprocess
import sys

# Members of a class the shipped code uses that only tests or paper code
# call. Moving one out would split its class. Keyed by the demangled
# signature; each value names the reader.
ALLOWLIST = {
    "logr::FactoredMaxEnt::MarginalOf(logr::FeatureVec const&) const":
        "summarize/mtv.cc (logr_paper) and the factored-model tests",
    "logr::SignatureSpace::SignatureOf(logr::FeatureVec const&) const":
        "maxent/deviation.cc (logr_paper), the Appendix C sampler",
    "logr::MaxEntModel::MaxResidual() const":
        "maxent_test and ablation_maxent: the fit's convergence check",
    "logr::ZipfSampler::Sample(logr::Pcg32*) const":
        "data/income.cc (logr_paper) and util_test",
    "logr::QueryLog::Probability(unsigned long) const":
        "maxent/projected_log.cc (logr_paper); holds a LOGR_CHECK",
    "logr::FeatureVec::Contains(unsigned int) const":
        "tests/oracles/lossless.cc and bench/fig5_refinement.cc",
}

LOGR_FUNCTION = re.compile(r"^_ZNK?4logr")
CLONE_SUFFIX = re.compile(r"\.(constprop|isra|part|cold)\b")
MEMBER = re.compile(r"liblogr\.a\(([^)]+)\)")


def fail(message):
    print(f"shipped_reach: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, **kwargs):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kwargs)
    if result.returncode != 0:
        if result.stdout:
            print(result.stdout[-4000:], file=sys.stderr)
        fail(f"`{' '.join(cmd)}` exited {result.returncode}")
    return result.stdout


def shipped_binaries(source):
    """The examples/ programs and the fuzz corpus drivers."""
    examples = [f[:-len(".cpp")] for f in os.listdir(
        os.path.join(source, "examples")) if f.endswith(".cpp")]
    drivers = [f[:-len(".cc")] + "_driver" for f in os.listdir(
        os.path.join(source, "fuzz")) if re.match(r"fuzz_\w+\.cc$", f)]
    return sorted(examples + drivers)


def build_shipped(args):
    """Configures and builds the shipped targets; returns the map dir."""
    map_dir = os.path.join(args.build, "maps")
    os.makedirs(map_dir, exist_ok=True)
    configure = [
        args.cmake, "-S", args.source, "-B", args.build,
        "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections",
        f"-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections,-Map={map_dir}/",
        "-DLOGR_BUILD_TESTS=OFF", "-DLOGR_BUILD_BENCH=OFF",
        "-DLOGR_BUILD_EXAMPLES=ON", "-DLOGR_BUILD_FUZZERS=ON",
        "-DLOGR_FUZZ=OFF", "-DLOGR_SANITIZE=",
    ]
    if args.generator:
        configure += ["-G", args.generator]
    if args.cxx:
        configure.append(f"-DCMAKE_CXX_COMPILER={args.cxx}")
    run(configure, stderr=subprocess.STDOUT)
    run([args.cmake, "--build", args.build, "-j", str(os.cpu_count() or 1)],
        stderr=subprocess.STDOUT)
    return map_dir


def archive_text_sections(archive):
    """{member: {section name: in a COMDAT group}} for .text._Z* sections."""
    sections = {}
    member = None
    for line in run(["readelf", "-S", "-W", archive]).splitlines():
        m = re.match(r"^File: .*\((.+)\)$", line)
        if m:
            member = m.group(1)
            sections[member] = {}
            continue
        m = re.match(r"^\s*\[\s*\d+\]\s+(\.text\._Z\S*)\s+(.*)$", line)
        if m and member is not None:
            fields = m.group(2).split()
            # Type Address Off Size ES Flg Lk Inf Al: Flg is the 6th field.
            flags = fields[5] if len(fields) == 9 else ""
            sections[member][m.group(1)] = "G" in flags
    return sections


def kept_sections(path):
    """{(file, section name)} of the input sections one map keeps.

    Reads the "Linker script and memory map" block: every input section
    listed there survived --gc-sections and COMDAT folding. `file` is the
    liblogr.a member, or None for any other object.
    """
    kept = set()
    in_map = False
    pending = None  # a section name whose address line comes next
    for line in open(path, encoding="utf-8", errors="replace"):
        if not in_map:
            in_map = line.startswith("Linker script and memory map")
            continue
        fields = line.split()
        if line.startswith(" .") and len(fields) == 1:
            pending = fields[0]
            continue
        if line.startswith(" .") and len(fields) >= 4:
            name, where = fields[0], fields[-1]
        elif pending is not None and len(fields) == 3:
            name, where = pending, fields[-1]
        else:
            pending = None
            continue
        pending = None
        if name.startswith(".text._Z"):
            m = MEMBER.search(where)
            kept.add((m.group(1) if m else None, name))
    return kept


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n").splitlines()
    return dict(zip(names, out))


def is_filtered(pretty):
    """Constructors, destructors and operator=, by rule."""
    head = pretty.split("(", 1)[0]
    while "<" in head:  # drop template arguments, innermost first
        head = re.sub(r"<[^<>]*>", "", head)
    parts = head.split("::")
    if len(parts) >= 2 and (parts[-1] == parts[-2] or
                            parts[-1].startswith("~")):
        return True
    return parts[-1] == "operator="


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", required=True, help="repository root")
    parser.add_argument("--build", required=True,
                        help="sub-build directory (created if missing)")
    parser.add_argument("--cmake", default="cmake")
    parser.add_argument("--generator", default="")
    parser.add_argument("--cxx", default="", help="C++ compiler")
    args = parser.parse_args()
    args.source = os.path.abspath(args.source)
    args.build = os.path.abspath(args.build)

    map_dir = build_shipped(args)
    binaries = shipped_binaries(args.source)
    for binary in binaries:
        if not os.path.exists(os.path.join(map_dir, binary + ".map")):
            fail(f"{binary}.map missing from {map_dir}")

    sections = archive_text_sections(os.path.join(args.build, "liblogr.a"))
    # A key per function copy: COMDAT copies share the section name, a
    # file-local function is told apart by its member.
    def key(member, name):
        return name if sections[member][name] else (member, name)

    reached = set()  # keys of kept copies
    reached_by = {}  # section name -> a binary that keeps a copy
    for binary in binaries:
        for member, name in kept_sections(
                os.path.join(map_dir, binary + ".map")):
            reached_by.setdefault(name, binary)
            if member in sections and name in sections[member]:
                reached.add(key(member, name))
            else:  # a COMDAT copy from the binary's own objects
                reached.add(name)

    unreached = {}  # mangled name -> members holding it
    mangled_of = {}  # demangled name -> mangled name
    names = sorted({n for m in sections.values() for n in m})
    pretty = demangle([n[len(".text."):] for n in names])
    for member, member_sections in sections.items():
        for name in member_sections:
            mangled = name[len(".text."):]
            mangled_of[pretty[mangled]] = mangled
            if (key(member, name) in reached or
                    not LOGR_FUNCTION.match(mangled) or
                    CLONE_SUFFIX.search(mangled)):
                continue
            unreached.setdefault(mangled, set()).add(member)

    failures = []
    for mangled, members in sorted(unreached.items(),
                                   key=lambda kv: pretty[kv[0]]):
        name = pretty[mangled]
        if not is_filtered(name) and name not in ALLOWLIST:
            failures.append(
                f"unreached: {name} [{', '.join(sorted(members))}]")
    for name in sorted(ALLOWLIST):
        mangled = mangled_of.get(name)
        if mangled is None:
            failures.append(f"stale allowlist entry: {name} is not in "
                            "liblogr.a")
        elif mangled not in unreached:
            failures.append(f"stale allowlist entry: {name} is reached by "
                            f"{reached_by['.text.' + mangled]}")

    print(f"shipped_reach: {len(binaries)} shipped binaries, {len(names)} "
          f"function sections in liblogr.a, {len(unreached)} logr:: "
          f"functions unreached, {len(ALLOWLIST)} allowlisted")
    for line in failures:
        print(line)
    if failures:
        print("Move each unreached function to its readers (logr_oracles, "
              "logr_paper, or file-local) or delete it; drop stale "
              "allowlist entries from tools/shipped_reach.py.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
