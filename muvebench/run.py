#!/usr/bin/env python3
"""Builds and runs the MUVE serving benchmark from the repository root.

One run (the form BENCHMARK.json names):

    python3 muvebench/run.py --workload voice_vocab --seed 1 --seconds 30 \\
        --trace 0

builds the repository's libraries and the benchmark program into .bench_build (or
$CARGO_TARGET_DIR), runs one workload and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics, or with --trace 1 the per-layer ones (the trace is written to
<build>/traces/<workload>-<seed>.json and summarized by summarize.py).
It exits non-zero without a result line when the build or the run fails.

Steadiness (k runs of one workload on seeds 1..k, then per end-to-end
metric the median, quartiles and relative spread beside its bound):

    python3 muvebench/run.py --steady 5 --workload scan_ingest

Unit tests of the benchmark itself:

    python3 muvebench/run.py --test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def log(message):
    print("muvebench: " + message, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; False on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run_once(workload, seed, seconds, trace, deadline):
    """Runs the benchmark program once; returns the result object or None."""
    binary = os.path.join(build_dir(), "muvebench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_path = os.path.join(build_dir(), "traces",
                                  "%s-%d.json" % (workload, seed))
        cmd += ["--trace_path", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run failed with exit code %d" % proc.returncode)
        return None
    result = json.loads(lines[-1])
    if trace:
        sys.dont_write_bytecode = True
        sys.path.insert(0, BENCH_DIR)
        import summarize
        for name, value in summarize.shares(summarize.load(trace_path)).items():
            result["metrics"][name] = {"value": value, "unit": "share"}
        log("trace written to " + trace_path)
    return result


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def steady(args, deadline_per_run):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for k in range(args.steady):
        seed = args.seed + k
        result = run_once(args.workload, seed, seconds, False,
                          time.monotonic() + deadline_per_run)
        if result is None or not result["correct"]:
            log("steadiness run on seed %d failed" % seed)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    names = sorted(values, key=lambda n: (n != "setup_s", n))
    print("%-20s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        median, q1, q3, spread = quartile_spread(values[name])
        bound = bounds.get(name, float("nan"))
        flag = "" if spread <= bound / 3 else \
            (" above bound/3" if spread <= bound else " ABOVE BOUND")
        print("%-20s %12.5g %12.5g %12.5g %8.4f %7.3f%s" %
              (name, median, q1, q3, spread, bound, flag))
    return 0


def self_test():
    if not build(["muvebench_test"]):
        return 1
    if subprocess.run([os.path.join(build_dir(), "muvebench_test")]).returncode:
        return 1
    suite = unittest.defaultTestLoader.discover(
        os.path.join(BENCH_DIR, "tests"), pattern="test_*.py")
    return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()
    if args.test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["muvebench"]):
        return 1
    if args.steady:
        return steady(args, RUN_TIMEOUT_S)
    if not args.seconds:
        parser.error("--seconds is required")
    # The first build may take minutes; a run itself gets RUN_TIMEOUT_S.
    result = run_once(args.workload, args.seed, args.seconds, args.trace == 1,
                      time.monotonic() + RUN_TIMEOUT_S)
    if result is None:
        return 1
    log("finished in %.1f s" % (time.monotonic() - start))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
