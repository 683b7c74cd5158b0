#!/usr/bin/env python3
"""Compare end-to-end benchmark results between two commits (stdlib only).

Results are the JSON-lines files `run.py --out FILE` appends to, one line
per workload run: {"workload", "seed", "trace", "seconds", "result"}.
Only untraced runs (trace 0) are compared; the bounds and directions come
from BENCHMARK.json.

    compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT --out-dir DIR
        Runs every workload of BENCHMARK.json in both checkouts for 10
        pairs on seeds 1-10, alternating which side goes first, into
        DIR/parent.jsonl and DIR/change.jsonl, then prints the diff below.

    compare.py diff PARENT.jsonl CHANGE.jsonl
        One row per workload x metric: better, same, worse or unresolved,
        by these rules:
          - fewer than 10 pairs (runs of one workload and seed on both
            sides) is unresolved;
          - better: the change wins at least 9 of 10 pairs (ties count
            for neither side), its median beats the parent's by more than
            the parent's interquartile range, and it fails no more
            operations than the parent;
          - otherwise, when the parent's spread (IQR / median) exceeds the
            bound, unresolved, unless every change run reads better than
            every parent run (then same);
          - worse: the change's median is worse than the parent's by more
            than the bound; else same.

    compare.py spread RUNS.jsonl [SECOND.jsonl]
        Per workload x metric: median, quartiles and spread (IQR / median,
        quartiles from statistics.quantiles(values, n=4)) against the
        bound; a spread above a third of the bound is flagged. With a
        second file, also checks that its median is not worse than the
        first's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(path=SPEC):
    spec = json.loads(Path(path).read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    """(workload, seed) -> result of every untraced run in `path`."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace", 0) == 0:
            runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, value):
    """How much worse `value` is than `base`, as a share of `base`."""
    gap = (value - base) if metric["better"] == "lower" else (base - value)
    return gap / abs(base) if base else (0.0 if gap <= 0 else float("inf"))


def improves(metric, base, value):
    return worse_by(metric, base, value) < 0


def verdict(metric, pairs, failed_parent, failed_change):
    """better / same / worse / unresolved, with the numbers behind it."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if improves(metric, p, c))
    info = {"n": len(pairs), "wins": wins, "parent": pm, "change": cm,
            "parent_iqr": p3 - p1}
    if len(pairs) < MIN_PAIRS:
        return "unresolved", info
    if (wins >= WIN_SHARE * len(pairs) and improves(metric, pm, cm)
            and abs(cm - pm) > p3 - p1 and failed_change <= failed_parent):
        return "better", info
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if spread > metric["bound"]:
        all_better = all(improves(metric, p, c) for p in parent for c in change)
        return ("same" if all_better else "unresolved"), info
    if worse_by(metric, pm, cm) > metric["bound"]:
        return "worse", info
    return "same", info


def diff(parent_path, change_path):
    _, metrics = load_spec()
    parent, change = load_runs(parent_path), load_runs(change_path)
    by_workload = defaultdict(list)
    for key in sorted(parent.keys() & change.keys()):
        by_workload[key[0]].append((parent[key], change[key]))
    print(f"{'workload':22s} {'metric':18s} {'parent':>12s} {'change':>12s} "
          f"{'wins':>6s}  verdict")
    counts = defaultdict(int)
    for workload, runs in sorted(by_workload.items()):
        failed_p = sum(p["failed"] for p, _ in runs)
        failed_c = sum(c["failed"] for _, c in runs)
        for name, metric in metrics.items():
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in runs]
            v, info = verdict(metric, pairs, failed_p, failed_c)
            counts[v] += 1
            print(f"{workload:22s} {name:18s} {info['parent']:12.6g} "
                  f"{info['change']:12.6g} {info['wins']:>3d}/{info['n']:<2d}  {v}")
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts["worse"] else 0


def spread(first_path, second_path=None):
    _, metrics = load_spec()
    sets = [load_runs(first_path)]
    if second_path:
        sets.append(load_runs(second_path))
    ok = True
    print(f"{'workload':22s} {'metric':18s} {'n':>3s} {'median':>12s} "
          f"{'spread':>8s} {'bound':>6s}  status")
    workloads = sorted({w for w, _ in sets[0]})
    for workload in workloads:
        for name, metric in metrics.items():
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"]
                          for (w, _), r in runs.items() if w == workload]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                rel = (q3 - q1) / abs(med) if med else 0.0
                if rel > metric["bound"]:
                    status, ok = "TOO WIDE", False
                elif rel > metric["bound"] / 3:
                    status = "above bound/3"
                else:
                    status = "ok"
                print(f"{workload:22s} {name:18s} {len(values):3d} {med:12.6g} "
                      f"{rel:8.4f} {metric['bound']:6.3f}  {status}")
            if len(medians) == 2:
                drift = worse_by(metric, medians[0], medians[1])
                drift_ok = drift <= metric["bound"]
                ok = ok and drift_ok
                print(f"{'':22s} {'':18s} second median worse by {drift:+.4f}"
                      f"  {'ok' if drift_ok else 'TOO FAR'}")
    return 0 if ok else 1


def run_pairs(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    spec, _ = load_spec(sides["change"] / "BENCHMARK.json")
    workloads = [w["name"] for w in spec["workloads"]]
    for seed in range(1, MIN_PAIRS + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "bench/e2e/run.py", "--workload",
                       workload, "--seed", str(seed), "--out",
                       str((out / f"{side}.jsonl").resolve())]
                print(f"pair {seed}/{MIN_PAIRS} {side} {workload}",
                      file=sys.stderr, flush=True)
                # Each side builds its own sources into its own tree.
                env = dict(os.environ,
                           CARGO_TARGET_DIR=str(sides[side] / ".bench_build"))
                subprocess.run(cmd, cwd=sides[side], env=env,
                               stdout=subprocess.DEVNULL)
    return diff(out / "parent.jsonl", out / "change.jsonl")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out-dir", required=True)
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    s = sub.add_parser("spread")
    s.add_argument("runs")
    s.add_argument("second", nargs="?")
    args = parser.parse_args()
    if args.cmd == "pairs":
        return run_pairs(args)
    if args.cmd == "diff":
        return diff(args.parent, args.change)
    return spread(args.runs, args.second)


if __name__ == "__main__":
    sys.exit(main())
