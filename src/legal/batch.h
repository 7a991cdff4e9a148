// BatchEvaluator: cached, parallel compliance evaluation at scale.
//
// ComplianceEngine::evaluate is a pure, deterministic function of the
// Scenario, which makes verdicts ideal cache and fan-out material: a
// service answering Table-1-style questions for millions of users keeps
// re-deriving the same few thousand distinct determinations.  This
// module adds the pieces the serial engine lacks:
//
//   1. VerdictCache: a sharded, mutex-striped LRU keyed on the
//      scenario's FactKey (legal/fact_key.h, util::ShardedLruCache).
//      The key leaves the name out, so scenarios that differ only in
//      name share one entry; a hit hands back the stored Determination
//      with scenario_name set to the caller's name, which makes it
//      identical to ComplianceEngine::evaluate.  A process-wide
//      instance (shared_verdict_cache()) is reused by Investigation
//      and the plan linter so repeated lint/eval cycles stop
//      re-deriving verdicts.
//   2. BatchEvaluator: fans a batch of scenario queries out through
//      util::parallel_for and merges Determinations in input order,
//      bit-identical to evaluating serially.
//   3. fingerprint(): the audit digest, SHA-256 over a canonical,
//      versioned serialization of every Scenario field, name included.
//      No cache looks it up; it names a scenario exactly in logs,
//      exports and replays.
//
// Obs wiring: legal.batch.cache_hits / legal.batch.cache_misses
// counters and the legal.batch.eval_latency_us histogram (miss path).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "legal/engine.h"
#include "legal/fact_key.h"
#include "legal/scenario.h"
#include "util/lru_cache.h"

namespace lexfor::legal {

// A scenario's audit digest: SHA-256 over the canonical serialization
// of every field, name included (see hash_canonical in batch.cpp; bump
// kFingerprintVersion whenever a field is added or re-encoded).
using ScenarioFingerprint = crypto::Sha256::Digest;

inline constexpr std::uint8_t kFingerprintVersion = 1;

[[nodiscard]] ScenarioFingerprint fingerprint(const Scenario& s);
[[nodiscard]] std::string fingerprint_hex(const Scenario& s);

using VerdictCache = util::ShardedLruCache<FactKey, Determination, FactKeyHash>;

// The process-wide verdict cache (leaked on purpose, like
// obs::metrics()): every BatchEvaluator constructed with
// BatchOptions::use_shared_cache sees the same entries, so a verdict
// derived during plan linting is a hit when the runtime acquires.
[[nodiscard]] VerdictCache& shared_verdict_cache();

struct BatchOptions {
  // evaluate_batch's fan-out width (util::parallel_for); 0 = one per
  // hardware thread, 1 = inline on the calling thread.
  unsigned threads = 0;
  // Entry budget / stripe count for a private cache (ignored when
  // use_shared_cache is set).
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  // Use the process-wide cache instead of a private one.
  bool use_shared_cache = true;
};

class BatchEvaluator {
 public:
  BatchEvaluator() : BatchEvaluator(BatchOptions{}) {}
  explicit BatchEvaluator(BatchOptions options);

  // Single evaluation through the verdict cache.  Thread-safe.
  [[nodiscard]] Determination evaluate(const Scenario& s) const;

  // Evaluates the whole batch, fanning chunks out across
  // BatchOptions::threads threads.
  // Results are returned in input order and are bit-identical to
  // calling ComplianceEngine::evaluate on each element serially (the
  // engine is pure, so per-element results are order- and
  // thread-independent; the cache stores and returns full value
  // copies).
  [[nodiscard]] std::vector<Determination> evaluate_batch(
      const std::vector<Scenario>& batch) const;

  [[nodiscard]] const ComplianceEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] VerdictCache& cache() const noexcept { return *cache_; }

 private:
  ComplianceEngine engine_;
  BatchOptions options_;
  std::unique_ptr<VerdictCache> owned_cache_;  // null when shared
  VerdictCache* cache_ = nullptr;
};

}  // namespace lexfor::legal
