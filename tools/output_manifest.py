#!/usr/bin/env python3
"""Pins the bytes logr_cli writes: one digest per output file and stdout.

Runs a fixed logr_cli matrix in a temporary directory, with relative
paths only, over three logs the script writes itself with the CI
smoke's formulas (smoke.sql, batches.sql with 3,000 templates, and
dist.sql), so nothing is downloaded and no generator binary is needed.
It then digests every file left in that directory and every captured
stdout, and compares the result with tests/testdata/outputs.manifest.

The matrix: convert; compress from text and from .logrl under each
encoder; kmeans and hierarchical at --clusters 16 under each encoder;
--shards 4 with naive and refined; manhattan, minkowski and hamming,
plus hamming at --clusters 16; adaptive; split --shards 4 and a
distribute of that split; merge; and info, estimate and visualize on
one summary per encoder. distribute's wall-time line is dropped.

Usage:
  tools/output_manifest.py --cli build/logr_cli            # check
  tools/output_manifest.py --cli build/logr_cli --update   # rewrite

A check exits 0 when every entry matches and 1 otherwise, naming each
entry that differs, is missing or is new. A change that moves output
bytes on purpose runs --update and says why.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "tests", "testdata", "outputs.manifest")

ENCODERS = ("naive", "refined", "pattern")

# distribute reports its wall time; every other stdout line is
# deterministic.
WALL_TIME_LINE = re.compile(r"^distributed .* in [0-9.]+s ")


def write_logs():
    """The CI smoke's logs, byte for byte as its printf loops write them."""
    with open("smoke.sql", "w") as f:
        f.write("50\tSELECT a, b FROM t WHERE x = 1 AND y = 2\n"
                "30\tSELECT a FROM t WHERE x = 3\n"
                "20\tSELECT c FROM u WHERE z = 4\n"
                "10\tSELECT c, d FROM u WHERE z = 5 AND w = 6\n")
    with open("batches.sql", "w") as f:
        for i in range(1, 3001):
            f.write(f"{1 + i % 9}\tSELECT c{i % 41}, d FROM t{i % 13} "
                    f"WHERE a = {i} AND b{i % 7} = ?\n")
    with open("dist.sql", "w") as f:
        for i in range(1, 41):
            f.write(f"{10 + i}\tSELECT c{i} FROM t{i % 5} "
                    f"WHERE a{i} = {i} AND b{i % 7} = ?\n")


def matrix():
    """(tag, logr_cli arguments) in run order; later runs read earlier
    outputs."""
    runs = []
    for log in ("smoke", "batches", "dist"):
        runs.append((f"convert-{log}",
                     ["convert", "--out", f"{log}.logrl", f"{log}.sql"]))
    for e in ENCODERS:
        for src, ext in (("text", "sql"), ("logrl", "logrl")):
            runs.append((f"compress-{src}-{e}",
                         ["compress", "--clusters", "4", "--encoder", e,
                          "--out", f"batches-{src}-{e}.logr",
                          f"batches.{ext}"]))
        for m in ("kmeans", "hierarchical"):
            runs.append((f"compress-k16-{m}-{e}",
                         ["compress", "--clusters", "16", "--method", m,
                          "--encoder", e, "--out", f"batches-k16-{m}-{e}.logr",
                          "batches.sql"]))
    for e in ("naive", "refined"):
        runs.append((f"compress-shards4-{e}",
                     ["compress", "--clusters", "4", "--shards", "4",
                      "--encoder", e, "--out", f"batches-shards4-{e}.logr",
                      "batches.logrl"]))
    for m, k in (("manhattan", 4), ("minkowski", 4), ("hamming", 4),
                 ("hamming", 16), ("adaptive", 4)):
        runs.append((f"compress-{m}-k{k}",
                     ["compress", "--clusters", str(k), "--method", m,
                      "--out", f"batches-{m}-k{k}.logr", "batches.logrl"]))
    runs.append(("split", ["split", "--shards", "4", "--out-dir", "shards",
                           "dist.logrl"]))
    runs.append(("distribute",
                 ["distribute", "--workers", "4", "--clusters", "4",
                  "--spool", "spool", "--out", "dist-distributed.logr",
                  "shards"]))
    for e in ENCODERS:
        runs.append((f"compress-smoke-{e}",
                     ["compress", "--clusters", "2", "--encoder", e,
                      "--out", f"smoke-{e}.logr", "smoke.sql"]))
    runs.append(("merge", ["merge", "--clusters", "2", "--out",
                           "smoke-merged.logr", "smoke-naive.logr",
                           "smoke-refined.logr"]))
    for e in ENCODERS:
        summary = f"batches-text-{e}.logr"
        runs.append((f"info-{e}", ["info", summary]))
        runs.append((f"estimate-{e}",
                     ["estimate", summary, "FROM:t3", "SELECT:c5"]))
        runs.append((f"visualize-{e}", ["visualize", summary]))
    return runs


def digest(data):
    return hashlib.sha256(data).hexdigest()


def compute(cli):
    """Runs the matrix in a fresh directory; returns {entry: digest}."""
    entries = {}
    with tempfile.TemporaryDirectory(prefix="logr-manifest-") as work:
        os.chdir(work)
        write_logs()
        for tag, args in matrix():
            proc = subprocess.run([cli] + args, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                sys.exit(f"logr_cli {' '.join(args)} exited "
                         f"{proc.returncode}")
            lines = proc.stdout.decode().splitlines(keepends=True)
            kept = "".join(l for l in lines if not WALL_TIME_LINE.match(l))
            entries[f"stdout/{tag}"] = digest(kept.encode())
        for root, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(root, name), ".")
                with open(path, "rb") as f:
                    entries[path] = digest(f.read())
        os.chdir("/")
    return entries


def read_manifest(path):
    entries = {}
    with open(path) as f:
        for line in f:
            value, name = line.rstrip("\n").split("  ", 1)
            entries[name] = value
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="logr_cli binary")
    parser.add_argument("--manifest", default=MANIFEST)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest instead of checking it")
    args = parser.parse_args()
    cli = os.path.abspath(args.cli)
    manifest = os.path.abspath(args.manifest)

    entries = compute(cli)
    if args.update:
        with open(manifest, "w") as f:
            for name in sorted(entries):
                f.write(f"{entries[name]}  {name}\n")
        print(f"wrote {len(entries)} entries to {manifest}")
        return 0

    expected = read_manifest(manifest)
    bad = 0
    for name in sorted(set(expected) | set(entries)):
        if name not in entries:
            print(f"missing: {name}")
        elif name not in expected:
            print(f"new: {name}")
        elif entries[name] != expected[name]:
            print(f"differs: {name}")
        else:
            continue
        bad += 1
    if bad:
        print(f"{bad} of {len(expected)} manifest entries do not match")
        return 1
    print(f"all {len(expected)} manifest entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
