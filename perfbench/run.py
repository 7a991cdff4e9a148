#!/usr/bin/env python3
"""Builds and runs the LexForensica benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

The C++ package in this directory is configured and built from source into
.bench_build/perfbench at the checkout root (RelWithDebInfo, the
repository's default build type), then run once.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.  A traced run (--trace 1) also writes its spans as Chrome
trace JSON under .bench_build/perfbench/traces/.  --selftest runs the
tests of the benchmark's own arithmetic.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_hot", "serve_cold", "traceback", "multiflow_scan")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no LexForensica sources at " + ROOT, file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target"] + list(targets))
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return True


def run(cmd):
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return run([os.path.join(BUILD, "perfbench_selftest")])

    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a non-negative whole number")
    if not build(["perfbench"]):
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
