#!/usr/bin/env python3
"""The end-to-end benchmark in one command: build, set up, run, check, report.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-dir DIR] [--smoke]
                             [--out FILE]

Run from the root of a checkout. Builds bench/e2e (a standalone CMake
project that links the repository's `logr` library) into the directory
named by CARGO_TARGET_DIR, default `.bench_build`. For each workload it
then:

  1. runs `logr_e2e setup` into fresh directories, at least twice and
     until one second of setups has run;
  2. starts one fresh `logr_e2e run` process on the first directory, which
     receives only the generated files, measures for --seconds, and checks
     every output (bench/e2e/README.md lists the checks);
  3. runs as many setups again, checks that every setup produced
     identical files, and reports the median wall time of all of them
     as setup_s (short setups are repeated more, so the median is steady).

With --trace 1 it instead sets up twice, skips step 3, and runs the
workload twice, for half of --seconds each: untraced, then traced. The
traced run writes a Chrome trace to --trace-dir and gives the per-layer
metrics; the gap between the two runs' latency_ms is
bench.trace_overhead_pct.

Every metric is printed by name with its unit. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
--trace 1. Without --workload every workload runs and the metrics are
keyed "<workload>/<metric>". --smoke runs every workload at 1/20 of the
length with one setup and every check on. --out appends the result to a
JSON-lines file that compare.py reads.

Exit status: 0 when every check passed, 1 when one failed (the JSON line
then says "correct": false), 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 1.0
SMOKE_FRACTION = 20
# Bounds on a hung step, well inside the time an invocation may take.
SETUP_TIMEOUT_S = 30
RUN_GRACE_S = 40  # warm-up, checks and start-up on top of --seconds


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_root():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(root):
    """Configures (once per build tree; the build step re-runs CMake when
    a CMakeLists.txt changes) and builds logr_e2e."""
    tree = root / "e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(tree), "--target", "logr_e2e",
              "-j", jobs]]
    if not (tree / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(tree),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return tree / "logr_e2e"


def digest_tree(directory):
    """Relative path -> SHA-256 of every file under `directory`."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def setup(exe, workload, seed, directory):
    start = time.monotonic()
    with subprocess.Popen(
            [str(exe), "setup", "--workload", workload, "--seed", str(seed),
             "--dir", str(directory)],
            stdout=sys.stderr, stderr=sys.stderr) as proc:
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # round setup_s up by as much; a timer kills a hung setup instead.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    elapsed = time.monotonic() - start
    if returncode != 0:
        raise BenchError(f"setup of {workload} failed ({returncode})")
    return elapsed


def run_once(exe, workload, directory, seconds, trace_file=None):
    cmd = [str(exe), "run", "--workload", workload, "--dir", str(directory),
           "--seconds", repr(seconds)]
    if trace_file is not None:
        cmd += ["--trace-out", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=seconds + RUN_GRACE_S)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise BenchError(f"run of {workload} failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(exe, spec, args, workload, work):
    """Sets up and runs one workload; returns its result object."""
    trace = args.trace == 1
    # The run uses the first directory; the second holds the repeats, and
    # the traced run needs it as a second pristine copy, since runs
    # republish into their directory.
    dirs = [work / f"{workload}.setup0", work / f"{workload}.setup1"]
    setup_s = [setup(exe, workload, args.seed, dirs[0])]
    reference = digest_tree(dirs[0])
    same = True

    def repeat_setups(repeats, min_seconds):
        """Sets up into dirs[1] until this call has run `repeats` setups
        and `min_seconds` of them."""
        nonlocal same
        times = []
        while len(times) < repeats or sum(times) < min_seconds:
            shutil.rmtree(dirs[1], ignore_errors=True)
            times.append(setup(exe, workload, args.seed, dirs[1]))
            same = same and digest_tree(dirs[1]) == reference
        setup_s.extend(times)

    if trace:
        repeat_setups(1, 0.0)
    elif not args.smoke:
        repeat_setups(SETUP_MIN_REPEATS - 1, SETUP_MIN_SECONDS - setup_s[0])

    if trace:
        trace_dir = Path(args.trace_dir) if args.trace_dir else (
            build_root() / "traces")
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = (trace_dir / f"{workload}.json").resolve()
        plain = run_once(exe, workload, dirs[0], args.seconds / 2)
        traced = run_once(exe, workload, dirs[1], args.seconds / 2, trace_file)
        runs = [plain, traced]
        values = dict(traced["layers"])
        base = plain["e2e"]["latency_ms"]
        values["bench.trace_overhead_pct"] = (
            100.0 * (traced["e2e"]["latency_ms"] - base) / base)
        wanted = spec["per_layer"]
        log(f"{workload}: trace written to {trace_file}")
    else:
        runs = [run_once(exe, workload, dirs[0], args.seconds)]
        # Half the setups run after the measured run, so their median
        # samples the host at two times rather than one.
        if not args.smoke:
            repeat_setups(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)
        values = dict(runs[0]["e2e"])
        values["setup_s"] = statistics.median(setup_s)
        wanted = spec["end_to_end"]

    checks = [{"name": "setup_deterministic", "ok": same,
               "detail": f"{len(setup_s)} setups, {len(reference)} files"}]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            raise BenchError(f"{workload} reported no value for {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for r in runs:
        checks += r["checks"]
    return {
        "correct": all(r["correct"] for r in runs) and checks[0]["ok"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "checks": checks,
        "notes": runs[-1]["notes"],
    }


def print_result(workload, result):
    print(f"== {workload}: {'all checks passed' if result['correct'] else 'CHECK FAILED'}"
          f" ({result['attempted']} operations, {result['failed']} failed)")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    for key, value in sorted(result["notes"].items()):
        print(f"   note: {key} = {value}")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"   FAILED {c['name']}: {c['detail']}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="where traced runs write traces")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="append results to this JSON-lines file")
    args = parser.parse_args()
    # On SIGTERM unwind normally: subprocess.run then kills and reaps the
    # child it is waiting for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of {names}")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.smoke:
            args.seconds /= SMOKE_FRACTION
        workloads = [args.workload] if args.workload else names
        root = build_root()
        exe = build(root)
        work = root / "work" / str(os.getpid())
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        results = {}
        try:
            for w in workloads:
                results[w] = run_workload(exe, spec, args, w, work)
                print_result(w, results[w])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 2

    if args.workload:
        final = {k: results[args.workload][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    if args.out:
        with open(args.out, "a") as f:
            for w, r in results.items():
                f.write(json.dumps({"workload": w, "seed": args.seed,
                                    "trace": args.trace,
                                    "seconds": args.seconds,
                                    "result": {k: r[k] for k in final}}) + "\n")
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
