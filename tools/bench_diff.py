#!/usr/bin/env python3
"""Compare two BENCH_<date>.json files and flag regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [options]

Options:
    --threshold PCT      regression threshold per benchmark, percent
                         (default: 25 — generous because the CI
                         container is single-core and noisy)
    --require-obs-metrics  fail unless CURRENT embeds the obs snapshot
                         written by bench_obs (doc["obs_metrics"])
    --list               print every compared benchmark, not just
                         regressions/improvements

Reads the aggregate layout produced by tools/run_benchmarks.sh:
doc["microbenchmarks"][binary]["benchmarks"] is the google-benchmark
JSON for that binary.  Times are normalized to nanoseconds before
comparison (binaries may report in different time_units).  A benchmark
present on only one side is reported but never fails the diff — the
bench suite grows PR over PR.

Experiment benches under doc["experiments"] are captured as text, but
self-gating series embed machine-readable lines of the form

    A-<SERIES>-METRIC <name> <value>

(e.g. bench_watermark's A-SIMD despread-loop/blocked-scan
ns-per-offset pair,
bench_stream's single-pass vs per-suspect wall times, or bench_serve's
A-SERVE verdicts/s, p99 and allocs-per-batch).  Those are parsed into
cases too — values carry whatever unit the bench printed, which is
fine because the diff is relative.

Exit status: 0 when no benchmark regressed past the threshold (and, if
requested, obs metrics are present), 1 otherwise, 2 on usage errors —
including a missing or unparseable BASELINE/CURRENT file, reported as
a one-line message rather than a traceback.  A benchmark present in
CURRENT with no baseline entry (new bench, or a stale baseline) never
fails: it is listed and skipped, so growing the suite can't break CI.
"""

import argparse
import json
import re
import sys

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
_METRIC_LINE = re.compile(r"^A-[A-Z0-9]+-METRIC\s+(\S+)\s+(\S+)\s*$")


def usage_fail(msg):
    """Exit 2 with a clear one-line diagnosis (never a traceback)."""
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def load_cases(path, role):
    """Map '<binary>/<benchmark name>' -> real_time in ns."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        hint = (" (no baseline captured yet? run tools/run_benchmarks.sh "
                "on the base revision first, or skip the diff)"
                if role == "baseline" else "")
        usage_fail(f"{role} file {path} does not exist{hint}")
    except (OSError, json.JSONDecodeError) as e:
        usage_fail(f"cannot read {role} file {path}: {e}")
    if not isinstance(doc, dict):
        usage_fail(f"{role} file {path} is not a run_benchmarks.sh "
                   f"aggregate (top-level JSON object expected, got "
                   f"{type(doc).__name__})")
    cases = {}
    micro = doc.get("microbenchmarks", {})
    if not isinstance(micro, dict):
        usage_fail(f"{role} file {path}: 'microbenchmarks' is not an object")
    for binary, gbench in micro.items():
        if not isinstance(gbench, dict):
            continue
        for bench in gbench.get("benchmarks", []):
            if not isinstance(bench, dict):
                continue
            # Skip aggregate rows (mean/median/stddev of repetitions):
            # only raw iterations are comparable run to run.
            if bench.get("run_type") == "aggregate":
                continue
            scale = _TIME_UNIT_NS.get(bench.get("time_unit", "ns"))
            if scale is None or not isinstance(
                    bench.get("real_time"), (int, float)):
                continue
            cases[f"{binary}/{bench['name']}"] = bench["real_time"] * scale
    experiments = doc.get("experiments", {})
    if not isinstance(experiments, dict):
        usage_fail(f"{role} file {path}: 'experiments' is not an object")
    for binary, text in experiments.items():
        if not isinstance(text, str):
            continue
        for line in text.splitlines():
            m = _METRIC_LINE.match(line)
            if not m:
                continue
            try:
                cases[f"{binary}/{m.group(1)}"] = float(m.group(2))
            except ValueError:
                continue
    return doc, cases


def main():
    parser = argparse.ArgumentParser(
        description="diff two run_benchmarks.sh aggregates")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent")
    parser.add_argument("--require-obs-metrics", action="store_true",
                        help="fail unless CURRENT embeds obs_metrics")
    parser.add_argument("--list", action="store_true",
                        help="print every compared benchmark")
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    base_doc, base = load_cases(args.baseline, "baseline")
    cur_doc, cur = load_cases(args.current, "current")

    failed = False
    if args.require_obs_metrics:
        snap = cur_doc.get("obs_metrics")
        if not isinstance(snap, dict) or "counters" not in snap:
            print(f"FAIL {args.current} has no embedded obs_metrics "
                  "snapshot (did bench_obs run with "
                  "LEXFOR_OBS_SNAPSHOT_OUT set?)")
            failed = True
        else:
            print(f"obs_metrics OK: {len(snap.get('counters', {}))} "
                  f"counters, {len(snap.get('profile', {}))} profile "
                  f"sites, {len(snap.get('ring', []))} ring shards")

    regressions, improvements, compared = [], [], 0
    for name in sorted(base.keys() & cur.keys()):
        compared += 1
        before, after = base[name], cur[name]
        delta_pct = ((after - before) / before * 100.0) if before > 0 else 0.0
        row = (name, before, after, delta_pct)
        if args.list:
            print(f"  {name}: {before:.1f}ns -> {after:.1f}ns "
                  f"({delta_pct:+.1f}%)")
        if delta_pct > args.threshold:
            regressions.append(row)
        elif delta_pct < -args.threshold:
            improvements.append(row)

    # One-sided benchmarks are informational only: a bench added this PR
    # has no baseline entry yet, and a retired bench lingers in old
    # baselines.  Neither is a regression.
    for name in sorted(base.keys() - cur.keys()):
        print(f"  only in baseline (retired or not run): {name}")
    for name in sorted(cur.keys() - base.keys()):
        print(f"  only in current (new bench, no baseline yet): {name}")

    for name, before, after, delta in improvements:
        print(f"IMPROVED {name}: {before:.1f}ns -> {after:.1f}ns "
              f"({delta:+.1f}%)")
    for name, before, after, delta in regressions:
        print(f"REGRESSED {name}: {before:.1f}ns -> {after:.1f}ns "
              f"({delta:+.1f}%, threshold {args.threshold:.0f}%)")

    print(f"bench_diff: {compared} benchmarks compared, "
          f"{len(regressions)} regressed, {len(improvements)} improved "
          f"(threshold {args.threshold:.0f}%)")
    if regressions:
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
