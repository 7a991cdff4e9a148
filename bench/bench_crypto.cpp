// A-CRYPTO: hashing throughput (the substrate of evidence integrity and
// known-file search).

#include <benchmark/benchmark.h>

#include "crypto/crc32.h"
#include "crypto/sha256.h"
#include "util/rng.h"

namespace {

using namespace lexfor;
using namespace lexfor::crypto;

Bytes random_bytes(std::size_t n) {
  Rng rng{7};
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Range(64, 1 << 20);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Range(64, 1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(32);
  const Bytes msg = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Range(64, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
