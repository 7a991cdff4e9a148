#!/usr/bin/env bash
# Benchmark harness for LexForensica.
#
# Builds the bench binaries, runs every executable under build/bench/,
# and aggregates the results into one BENCH_<date>.json at the repo
# root.  google-benchmark binaries are run with
# --benchmark_format=json and their parsed output embedded verbatim;
# the experiment benches (plain executables printing the paper's
# tables/series) are captured as text.
#
# Experiment benches that self-verify gate the harness through their
# exit status: bench_table1 (all 20 rows must reproduce),
# bench_batch_engine (A-BATCH: parallel batch evaluation must be
# bit-identical to serial with a >= 90% verdict-cache hit rate),
# bench_watermark + bench_multiflow (A-SCAN: the correlation kernel and
# the ScanBatch fan-out must score bit-identically to the naive
# reference scan, and the kernel must beat its per-offset cost; A-SIMD:
# the offset-blocked scan must stay bit-identical to the reference
# over 300 randomized trials and run >= 2x faster per offset than a
# loop of single-window despreads, on every build and host),
# bench_stream (A-STREAM: the online despreader must match the batch
# scan bit for bit in O(ring) memory, the tap admission gate must
# hold, and at 4 and 9 suspects the streaming traceback must give every
# flow the verdict it gets when simulated alone and despread by the
# batch kernel, bit for bit), bench_baseline (E-IVB gate: kernel
# cross_score must match the naive pearson oracle bit for bit; the
# oracles live in tests/oracles/), bench_netsim (A-NETSIM:
# events/s at 1M+ queued events must stay >= 0.8x the 1k rate, the
# calendar queue must fire randomized schedules bit-identically to the
# retained heap oracle, and DES accounting must balance under
# topology churn), and bench_serve (A-SERVE: wire-batch verdicts
# identical to the direct evaluator at every worker count, exact
# admission accounting under overload + corruption, zero heap
# allocations per steady-state batch, complete latency histogram
# over the million-subscriber fleet run).
#
# Usage: tools/run_benchmarks.sh [options]
#   --build-dir DIR   build tree to use              (default: build)
#   --out FILE        output path                    (default: BENCH_<date>.json)
#   --min-time SEC    google-benchmark min time/case (default: 0.1)
#   --skip-plain      run only the google-benchmark microbenches
#   --jobs N          parallel build jobs            (default: nproc)
#
# Exits non-zero if any bench binary fails or the aggregate cannot be
# written.

set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="build"
OUT=""
MIN_TIME="0.1"
SKIP_PLAIN=0
JOBS="$(nproc 2>/dev/null || echo 4)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="${2:?--build-dir requires a value}"; shift ;;
    --out) OUT="${2:?--out requires a value}"; shift ;;
    --min-time) MIN_TIME="${2:?--min-time requires a value}"; shift ;;
    --skip-plain) SKIP_PLAIN=1 ;;
    --jobs) JOBS="${2:?--jobs requires a value}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

cd "${REPO_ROOT}"
DATE="$(date +%Y-%m-%d)"
[[ -n "${OUT}" ]] || OUT="BENCH_${DATE}.json"

echo "==> building benches into ${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S . >/dev/null || exit 1
cmake --build "${BUILD_DIR}" -j "${JOBS}" >/dev/null || exit 1

BENCH_DIR="${BUILD_DIR}/bench"
if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "no bench directory at ${BENCH_DIR}" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
FAILURES=0
GBENCH_NAMES=()
PLAIN_NAMES=()

# bench_obs writes its process-wide obs::Snapshot here after its timing
# runs; the aggregator embeds it as doc["obs_metrics"] so every
# BENCH_<date>.json carries the metrics/profiler state of the run that
# produced it (consumed by tools/bench_diff.py).
export LEXFOR_OBS_SNAPSHOT_OUT="${TMP}/obs_snapshot.json"

# A google-benchmark binary honours --benchmark_format=json and prints
# a JSON document; the experiment benches ignore argv and print their
# tables as text.  Run each binary once and classify by whether stdout
# parses as JSON (flag-sniffing can't distinguish them: the experiment
# benches accept and ignore any flag).
for bin in "${BENCH_DIR}"/*; do
  [[ -x "${bin}" && -f "${bin}" ]] || continue
  name="$(basename "${bin}")"
  if [[ "${SKIP_PLAIN}" -eq 1 ]] && \
     ! timeout 5 "${bin}" --benchmark_list_tests=true 2>/dev/null \
       | grep -q '^BM_'; then
    echo "==> ${name} (experiment bench, skipped)"
    continue
  fi
  echo "==> ${name}"
  if ! "${bin}" --benchmark_format=json \
                --benchmark_min_time="${MIN_TIME}" \
                >"${TMP}/${name}.out" 2>"${TMP}/${name}.err"; then
    echo "FAIL ${name}" >&2
    cat "${TMP}/${name}.err" >&2
    FAILURES=$((FAILURES + 1))
    continue
  fi
  if python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
       "${TMP}/${name}.out" 2>/dev/null; then
    mv "${TMP}/${name}.out" "${TMP}/${name}.json"
    GBENCH_NAMES+=("${name}")
  else
    mv "${TMP}/${name}.out" "${TMP}/${name}.txt"
    PLAIN_NAMES+=("${name}")
  fi
done

echo "==> aggregating into ${OUT}"
python3 - "${TMP}" "${OUT}" "${DATE}" \
    "${GBENCH_NAMES[@]+"${GBENCH_NAMES[@]}"}" <<'PY' || exit 1
import json, pathlib, sys

tmp, out, date, *gbench = sys.argv[1:]
tmp = pathlib.Path(tmp)
doc = {"date": date, "microbenchmarks": {}, "experiments": {}}
for name in gbench:
    with open(tmp / f"{name}.json") as f:
        doc["microbenchmarks"][name] = json.load(f)
for path in sorted(tmp.glob("*.txt")):
    doc["experiments"][path.stem] = path.read_text()
snapshot = tmp / "obs_snapshot.json"
if snapshot.exists():
    with open(snapshot) as f:
        doc["obs_metrics"] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
micro = sum(len(v.get("benchmarks", [])) for v in doc["microbenchmarks"].values())
print(f"    {len(doc['microbenchmarks'])} microbench binaries "
      f"({micro} cases), {len(doc['experiments'])} experiment benches")
PY

if [[ "${FAILURES}" -gt 0 ]]; then
  echo "benchmark harness FAILED (${FAILURES} binary(ies))" >&2
  exit 1
fi
echo "benchmark results written to ${OUT}"
