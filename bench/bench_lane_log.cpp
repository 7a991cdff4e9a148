// The owned log (util/lane_log.h), its scalar form and its lanes, beside
// std::log, over the uniforms the packet path takes logs of:
// Rng::uniform01 draws on the 2^-53 grid, with Rng::exponential's clamp
// at 2^-53.  One iteration logs a block of 64 (the candidate walk's
// block); items/s counts logs.  The scalar form runs in the same loop as
// std::log, inlined; GCC may vectorize that loop two lanes wide, as it
// may any caller's.  The AVX2 lane reports an error on a build or host
// without it.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "util/lane_log.h"
#include "util/rng.h"

namespace {

using namespace lexfor;

constexpr std::size_t kBlock = 64;
constexpr std::size_t kInputs = 1 << 16;

std::vector<double> uniforms() {
  Rng rng{2026};
  std::vector<double> u(kInputs);
  for (double& x : u) {
    x = rng.uniform01();
    if (x <= 0.0) x = 0x1.0p-53;
  }
  return u;
}

void BM_StdLog(benchmark::State& state) {
  const auto u = uniforms();
  double out[kBlock];
  std::size_t at = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBlock; ++i) out[i] = std::log(u[at + i]);
    benchmark::DoNotOptimize(out);
    at = (at + kBlock) % kInputs;
  }
  state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_StdLog);

void BM_OwnedLogScalar(benchmark::State& state) {
  const auto u = uniforms();
  double out[kBlock];
  std::size_t at = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBlock; ++i) out[i] = util::log(u[at + i]);
    benchmark::DoNotOptimize(out);
    at = (at + kBlock) % kInputs;
  }
  state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_OwnedLogScalar);

void run_lane(benchmark::State& state, util::LaneLog lane) {
  if (lane == nullptr) {
    state.SkipWithError("no AVX2 lane on this build or host");
    return;
  }
  const auto u = uniforms();
  double out[kBlock];
  std::size_t at = 0;
  for (auto _ : state) {
    lane(u.data() + at, out, kBlock);
    benchmark::DoNotOptimize(out);
    at = (at + kBlock) % kInputs;
  }
  state.SetItemsProcessed(state.iterations() * kBlock);
}

void BM_LaneLogBaseline(benchmark::State& state) {
  run_lane(state, &util::lane_log_baseline);
}
BENCHMARK(BM_LaneLogBaseline);

void BM_LaneLogAvx2(benchmark::State& state) {
  run_lane(state, util::lane_log_avx2());
}
BENCHMARK(BM_LaneLogAvx2);

}  // namespace

BENCHMARK_MAIN();
