#include "legal/batch.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <optional>
#include <utility>

#include "obs/obs.h"
#include "util/bytes.h"
#include "util/thread_pool.h"

namespace lexfor::legal {
namespace {

// Fixed-width append primitives so the serialization is identical
// across platforms and runs (no struct padding, no endianness
// surprises, no unordered iteration).  The fixed-size portion of a
// scenario is assembled on the stack and streamed straight into the
// hasher, so fingerprinting never allocates.
class CanonicalHasher {
 public:
  void put_u8(std::uint8_t v) { buf_[len_++] = v; }

  void put_u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      buf_[len_++] = static_cast<std::uint8_t>((v >> shift) & 0xff);
    }
  }

  // u32 length prefix, then the bytes: "ab"+"c" and "a"+"bc" must not
  // concatenate to the same stream.
  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    flush();
    hasher_.update(s);
  }

  crypto::Sha256::Digest finish() {
    flush();
    return hasher_.finish();
  }

 private:
  void flush() {
    hasher_.update(buf_, len_);
    len_ = 0;
  }

  crypto::Sha256 hasher_;
  // Large enough for the magic plus every fixed-width field between
  // two string flushes.
  std::uint8_t buf_[64];
  std::size_t len_ = 0;
};

// The magic and version, the name, the enum facts as one byte each and
// the flag facts as one little-endian u32 word (both in
// LEXFOR_FACT_LIST order), then the jurisdiction.  The list covers
// every enum and flag field of the struct; the
// DistinguishesEveryField test flips each field and asserts the
// digest moves.
ScenarioFingerprint hash_canonical(const Scenario& s) {
  CanonicalHasher out;
  for (const char c : {'l', 'e', 'x', 'f', 'o', 'r', '.', 's', 'c', 'e', 'n',
                       'a', 'r', 'i', 'o', '.', 'v'}) {
    out.put_u8(static_cast<std::uint8_t>(c));
  }
  out.put_u8(kFingerprintVersion);
  out.put_string(s.name);
#define LEXFOR_PUT_ENUM(member, Type, last) \
  out.put_u8(static_cast<std::uint8_t>(s.member));
  LEXFOR_FACT_LIST(LEXFOR_PUT_ENUM, LEXFOR_FACT_SKIP)
#undef LEXFOR_PUT_ENUM
  out.put_u32(flag_word(s));
  out.put_string(s.jurisdiction);
  return out.finish();
}

}  // namespace

ScenarioFingerprint fingerprint(const Scenario& s) {
  LEXFOR_OBS_PROFILE("legal.batch.fingerprint");
  return hash_canonical(s);
}

std::string fingerprint_hex(const Scenario& s) {
  const ScenarioFingerprint digest = hash_canonical(s);
  return to_hex(digest.data(), digest.size());
}

VerdictCache& shared_verdict_cache() {
  // Leaked on purpose; see obs::metrics().
  static VerdictCache* const instance =
      new VerdictCache(BatchOptions{}.cache_capacity,
                       BatchOptions{}.cache_shards);
  return *instance;
}

BatchEvaluator::BatchEvaluator(BatchOptions options)
    : options_(options) {
  if (options_.use_shared_cache) {
    cache_ = &shared_verdict_cache();
  } else {
    owned_cache_ = std::make_unique<VerdictCache>(options_.cache_capacity,
                                                  options_.cache_shards);
    cache_ = owned_cache_.get();
  }
}

Determination BatchEvaluator::evaluate(const Scenario& s) const {
  FactKey key;
  std::optional<Determination> hit;
  {
    LEXFOR_OBS_PROFILE("legal.batch.lookup");
    key = fact_key(s);
    hit = cache_->get(key);
  }
  if (hit) {
    LEXFOR_OBS_COUNTER_ADD("legal.batch.cache_hits", 1);
    // The entry may have been derived under another name; the engine
    // would have copied this caller's.
    hit->scenario_name = s.name;
    return std::move(*hit);
  }
  LEXFOR_OBS_COUNTER_ADD("legal.batch.cache_misses", 1);
  const auto start = std::chrono::steady_clock::now();
  Determination d = engine_.evaluate(s);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  LEXFOR_OBS_HISTOGRAM_RECORD("legal.batch.eval_latency_us", elapsed.count());
  cache_->put(key, d);
  return d;
}

std::vector<Determination> BatchEvaluator::evaluate_batch(
    const std::vector<Scenario>& batch) const {
  LEXFOR_OBS_COUNTER_ADD("legal.batch.batches", 1);
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "legal", "evaluate_batch",
                  "queries=" + std::to_string(batch.size()),
                  obs::no_sim_time());
  std::vector<Determination> out(batch.size());
  if (batch.empty()) return out;

  // Aim for a few chunks per thread so stragglers rebalance, without
  // claiming one element at a time.
  const unsigned width = util::resolve_width(options_.threads);
  const std::size_t grain = std::max<std::size_t>(
      1, batch.size() / (std::size_t{width} * 8));
  util::parallel_for(
      (batch.size() + grain - 1) / grain, width, [&](std::size_t chunk) {
        const std::size_t begin = chunk * grain;
        const std::size_t end = std::min(begin + grain, batch.size());
        for (std::size_t i = begin; i < end; ++i) out[i] = evaluate(batch[i]);
      });
  return out;
}

}  // namespace lexfor::legal
