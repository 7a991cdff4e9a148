#!/usr/bin/env bash
# Self-analysis harness for LexForensica.
#
# Stages (each gates the exit code):
#   1. warnings-as-errors build        (-DLEXFOR_WERROR=ON)
#   2. ASan+UBSan build + full ctest   (-DLEXFOR_SANITIZE=address;undefined
#                                       -DLEXFOR_WERROR=ON; includes the
#                                       serve wire-format fuzz suite, so
#                                       every mutation path runs
#                                       memory-checked, and the sanitized
#                                       build must be warning-free)
#   3. TSan concurrency stress         (-DLEXFOR_SANITIZE=thread; the obs
#                                       layer's multi-threaded counter and
#                                       histogram stress tests, the one
#                                       process-wide pool's fan-out call
#                                       and the sharded LRU cache, then
#                                       each layer that fans out through
#                                       that call: the legal batch
#                                       evaluator, the watermark scan
#                                       batch, the tornet simulation (also
#                                       sharing the pool with a concurrent
#                                       scan batch) and the verdict server)
#   4. lint regression                 (the lint_examples suite: the shipped
#                                       example plans must lint as documented)
#   5. clang-tidy over src/ bench/     (skipped with a notice when clang-tidy
#      examples/                        is not installed; everything else
#                                       still gates)
#   6. differential doctrine sweep     (src/check under ASan: engine vs
#                                       linter vs suppression cross-check
#                                       plus the metamorphic invariant
#                                       rules; LEXFOR_CHECK_TRIALS scales
#                                       the sweep, default 50000)
#   7. host-variance ctest             (stage 1's tree, full ctest with
#                                       GLIBC_TUNABLES masking AVX2 and
#                                       FMA, so glibc runs its other
#                                       log/exp variant; every gate must
#                                       give the same answer)
#   8. obs kill switch                 (-DLEXFOR_OBS=OFF -DLEXFOR_WERROR=ON
#                                       build + full ctest: with every
#                                       LEXFOR_OBS_* macro compiled out the
#                                       tree builds warning-free and every
#                                       test passes)
#   9. API census                      (the examples, benches and perfbench
#                                       built at -O0 -ffunction-sections,
#                                       linked with --gc-sections: every
#                                       library function no product keeps
#                                       must be on tools/api_census_allow.txt
#                                       with a reason, and every entry must
#                                       still be test-only)
#
# Usage: tools/run_static_analysis.sh [--skip-tidy] [--jobs N]
# Exits non-zero if any stage fails.

set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_TIDY=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-tidy) SKIP_TIDY=1 ;;
    --jobs) JOBS="${2:?--jobs requires a value}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

cd "${REPO_ROOT}"

FAILURES=0
declare -a SUMMARY=()

note()  { printf '\n==> %s\n' "$*"; }
stage() {
  # stage <label> <command...>; records pass/fail, keeps going.
  local label="$1"; shift
  note "${label}"
  if "$@"; then
    SUMMARY+=("PASS  ${label}")
  else
    SUMMARY+=("FAIL  ${label}")
    FAILURES=$((FAILURES + 1))
  fi
}

# ---------------------------------------------------------------- 1. -Werror
werror_build() {
  cmake -B build-werror -S . -DLEXFOR_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
  cmake --build build-werror -j "${JOBS}"
}
stage "warnings-as-errors build (LEXFOR_WERROR=ON)" werror_build

# ------------------------------------------------------- 2. sanitizer ctest
sanitizer_build() {
  cmake -B build-asan -S . "-DLEXFOR_SANITIZE=address;undefined" \
        -DLEXFOR_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
  cmake --build build-asan -j "${JOBS}"
}
sanitizer_ctest() {
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
}
stage "ASan+UBSan build (LEXFOR_WERROR=ON)" sanitizer_build
stage "full ctest under ASan+UBSan" sanitizer_ctest

# ----------------------------------------------- 3. TSan concurrency stress
# ThreadSanitizer checks the concurrent parts of the tree: the obs
# metrics registry's wait-free update promise (src/obs/metrics.h), the
# sharded LRU verdict cache, serve's lock-free verdict table, and
# util::parallel_for, the one fan-out call over the one process-wide
# worker pool, both on its own and in each layer that uses it: the legal
# batch evaluator, the watermark scan batch (parallel multi-flow
# despread), the tornet traceback simulation and the verdict server.
# The rest of the code is single-threaded DES and already covered above.
tsan_build() {
  cmake -B build-tsan -S . "-DLEXFOR_SANITIZE=thread" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
  cmake --build build-tsan -j "${JOBS}" \
        --target obs_test util_test legal_test watermark_test tornet_test \
                 stream_test netsim_test serve_test
}
tsan_stress() {
  # Covers the v2 sharded ring (8-thread merge stress), the call-site
  # profiler's concurrent record path, snapshot capture racing live
  # instrument updates and tracing threads, and the Chrome export of
  # events drained from four threads, alongside the v1
  # counter/histogram stress.
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/obs_test \
      --gtest_filter='ObsMetricsThreadTest.*:ObsTracerTest.*:ObsRingTest.*:ObsShardedRingTest.*:ObsProfileTest.*:ObsSnapshotTest.*:ObsExportTest.*'
}
tsan_pool_cache() {
  # The ThreadPoolTest cases are the fan-out call's own: every index
  # once at widths 0, 1, 2 and 8, width 1 on the caller, at most width
  # threads per call, concurrent callers sharing the pool, and nested
  # calls.  SmallFnTest/PoolTest cover the allocation substrate
  # (util/small_fn.h, util/pool.h): single-threaded by contract, but
  # instrumented runs also catch lifetime bugs (double-destroy in
  # SmallFn, a slot reused while still live).
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/util_test \
      --gtest_filter='ThreadPoolTest.*:LruCacheTest.*:PoolTest.*:SmallFnTest.*'
}
tsan_calendar_queue() {
  # The calendar queue + packet store under instrumentation, including
  # the oracle property suite (randomized schedules, resize crossings).
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/netsim_test \
      --gtest_filter='EventQueueTest.*:EventQueueOracleTest.*:PacketStoreTest.*'
}
tsan_batch() {
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/legal_test \
      --gtest_filter='BatchEvaluatorTest.*'
}
tsan_scan_batch() {
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/watermark_test \
      --gtest_filter='ScanBatchTest.*'
}
tsan_stream() {
  # The streaming tap drives netsim + legal admission (shared verdict
  # cache) + online despread in one binary; run the whole suite.
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/stream_test
}
tsan_traceback_fanout() {
  # The tornet fan-outs: flows simulated in parallel on the process-wide
  # pool (each flow's fused pass writing only its own slice, circuits
  # built on the calling thread), then the single-pass TapRegistry path
  # (which spans legal admission and the despread in one run), across
  # every detect thread count, with two tracebacks running at once, and
  # with a 4-wide traceback sharing the pool with a 4-wide ScanBatch.
  # The composition oracle runs here too, so a race that moved a draw
  # would also fail bit-identity.
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/tornet_test \
      --gtest_filter='TracebackTest.DetectThreadCountDoesNotChangeResults:TracebackTest.VerdictsMatchCompositionAtEveryThreadCount:TracebackTest.ConcurrentTracebacksMatchSerial:TracebackTest.SharesThePoolWithAConcurrentScanBatch:SimulateFlowBinsTest.*'
}
tsan_serve() {
  # The verdict server's fan-out path: workers answer disjoint
  # connection slots from the lock-free compact verdict table, and a
  # miss inserts into it and evaluates through the shared Determination
  # cache.  Runs the multi-worker server tests, the table suite (four
  # threads looking up and inserting while it grows and evicts) and the
  # fleet's order-independent wave generation (the wire codec is
  # single-threaded and covered under ASan by serve_fuzz).
  TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/serve_test \
      --gtest_filter='VerdictServerTest.*:VerdictTableTest.*:SyntheticFleetTest.*'
}
stage "TSan build (obs_test util_test legal_test watermark_test tornet_test stream_test netsim_test serve_test)" tsan_build
stage "obs thread-stress under TSan" tsan_stress
stage "fan-out call + sharded LRU cache under TSan" tsan_pool_cache
stage "calendar queue + packet store under TSan" tsan_calendar_queue
stage "batch evaluator under TSan" tsan_batch
stage "watermark scan batch under TSan" tsan_scan_batch
stage "streaming tap suite under TSan" tsan_stream
stage "tornet simulation fan-out + shared pool + tap registry under TSan" tsan_traceback_fanout
stage "verdict server + fleet under TSan" tsan_serve

# ------------------------------------------------------ 4. lint regression
lint_regression() {
  ctest --test-dir build-asan --output-on-failure -R '^LintExamplesTest'
}
stage "lint regression (lint_examples over shipped plans)" lint_regression

# ----------------------------------------------------------- 5. clang-tidy
if [[ "${SKIP_TIDY}" -eq 1 ]]; then
  SUMMARY+=("SKIP  clang-tidy (--skip-tidy)")
elif ! command -v clang-tidy >/dev/null 2>&1; then
  # Missing toolchain is a skip, not a failure: sanitizer + -Werror +
  # lint regression above still gate.
  SUMMARY+=("SKIP  clang-tidy (not installed)")
  note "clang-tidy not found on PATH; skipping tidy stage"
else
  tidy_src() {
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || return 1
    local files
    files="$(find src bench examples -name '*.cpp' | sort)"
    local rc=0
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p build-tidy -j "${JOBS}" ${files} || rc=1
    else
      # shellcheck disable=SC2086
      clang-tidy -quiet -p build-tidy ${files} || rc=1
    fi
    return "${rc}"
  }
  stage "clang-tidy over src/ bench/ examples/" tidy_src
fi

# --------------------------------------- 6. differential doctrine sweep
# The N-version consistency harness (src/check) at a larger trial count
# than the tier-1 default, reusing the ASan build so a disagreement also
# surfaces any memory error on the failure path.  Each trial walks
# several mutated scenarios, so 50000 trials cross-checks ~200k
# scenarios across engine, linter, and suppression auditor.
check_sweep() {
  LEXFOR_CHECK_TRIALS="${LEXFOR_CHECK_TRIALS:-50000}" \
  ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -R '^CheckFuzzTest'
}
stage "differential doctrine sweep (check_fuzz under ASan)" check_sweep

# ------------------------------------------------------- 7. host variance
# glibc picks its log/exp implementation by CPU, and its FMA variant
# and its baseline variant differ in the last bit for about one input in
# ten thousand.  Masking AVX2 and FMA from glibc's hwcaps makes it pick
# the other variant, so rerunning tier-1 that way shows whether any gate
# depends on which one the host got.  The simulation's exponentials take
# the owned util::log, so the golden log, flow, anonp2p and netsim
# digests must hold here unchanged.  Reuses stage 1's -Werror tree.
host_variance_ctest() {
  GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA \
  ctest --test-dir build-werror --output-on-failure -j "${JOBS}"
}
stage "tier-1 ctest under glibc's other log/exp (hwcaps -AVX2,-FMA)" \
      host_variance_ctest

# ---------------------------------------------------- 8. obs kill switch
# LEXFOR_OBS=OFF erases every LEXFOR_OBS_* macro (src/obs/obs.h).  A
# variable that only instrumentation reads then goes unused, and a test
# that reads an obs counter no longer sees it move, so the switch is
# built with -Werror and the whole suite runs against it.
obs_off_build() {
  cmake -B build-obsoff -S . -DLEXFOR_OBS=OFF -DLEXFOR_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null &&
  cmake --build build-obsoff -j "${JOBS}"
}
obs_off_ctest() {
  ctest --test-dir build-obsoff --output-on-failure -j "${JOBS}"
}
stage "obs kill-switch build (LEXFOR_OBS=OFF, LEXFOR_WERROR=ON)" obs_off_build
stage "full ctest with obs compiled out" obs_off_ctest

# ------------------------------------------------------------ 9. API census
# A library function that no product binary keeps is API that only the
# tests call: a second way to build a value, an input format or an
# extension point nothing uses.  This tree builds only the products
# (every example, every bench, and perfbench, configured from perfbench/
# with the same flags into build-census/perfbench; perfbench/ itself is
# only read) at -O0 with one section per function, and links them with
# --gc-sections, so each binary keeps exactly the functions main()
# reaches.
# tools/api_census.py compares them with the libraries' out-of-line
# functions and fails on a test-only one that tools/api_census_allow.txt
# does not list with a reason, and on a stale entry.
CENSUS_FLAGS=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
              -DCMAKE_CXX_FLAGS_DEBUG=-O0
              -DCMAKE_CXX_FLAGS=-ffunction-sections
              -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
census_build() {
  cmake -B build-census -S . "${CENSUS_FLAGS[@]}" >/dev/null &&
  make -C build-census/examples -j "${JOBS}" >/dev/null &&
  make -C build-census/bench-artifacts -j "${JOBS}" >/dev/null &&
  cmake -S perfbench -B build-census/perfbench "${CENSUS_FLAGS[@]}" \
        >/dev/null &&
  cmake --build build-census/perfbench -j "${JOBS}" --target perfbench \
        >/dev/null
}
census_check() {
  python3 tools/api_census.py --build build-census
}
stage "API census build (products at -O0, --gc-sections)" census_build
stage "API census: test-only functions are allowlisted" census_check

# ------------------------------------------------------------------ report
note "static analysis summary"
printf '  %s\n' "${SUMMARY[@]}"

if [[ "${FAILURES}" -gt 0 ]]; then
  echo
  echo "static analysis FAILED (${FAILURES} stage(s))" >&2
  exit 1
fi
echo
echo "static analysis clean"
