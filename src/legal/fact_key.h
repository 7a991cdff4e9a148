// FactKey: a scenario's doctrine identity packed into 64 bits.
//
// ComplianceEngine::evaluate reads a scenario's enum and flag facts and
// its jurisdiction's consent regime (plus, in one rationale line, the
// code of a listed all-party jurisdiction); the name is a label it only
// copies into Determination::scenario_name.  FactKey packs exactly what
// the engine reads, from LEXFOR_FACT_LIST (legal/scenario.h):
//
//   - each enum fact in std::bit_width(last enumerator) bits (13 bits
//     for the six enums),
//   - each flag fact in one bit (23 bits),
//   - the jurisdiction as its jurisdiction_index (5 bits), so every
//     unlisted code shares one value, as it shares the federal
//     one-party regime in the engine.
//
// Two scenarios with equal keys therefore get Determinations that are
// equal apart from scenario_name.  Both verdict caches key on it: the
// BatchEvaluator's Determination cache and serve's compact verdict
// table.  Building a key takes under 20 ns, against 0.7-1.1 us for the
// SHA-256 fingerprint, which stays the audit digest (legal/batch.h);
// bench_engine's BM_FactKey and BM_Fingerprint measure both.  The
// packing rule is pack_fact_key, over the facts in their wire layout:
// fact_key feeds it a Scenario's facts, and serve::wire::key_request a
// validated request frame's bytes, with no Scenario built.
//
// Enum facts must hold a declared enumerator; the wire decoder rejects
// any other byte.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "legal/jurisdiction.h"
#include "legal/scenario.h"

namespace lexfor::legal {

struct FactKey {
  std::uint64_t bits = 0;

  friend bool operator==(FactKey, FactKey) = default;
};

// Width of one enum fact in the key.
template <typename E>
[[nodiscard]] constexpr unsigned fact_bits(E last) noexcept {
  return static_cast<unsigned>(std::bit_width(static_cast<unsigned>(last)));
}

inline constexpr unsigned kFactKeyBits =
#define LEXFOR_KEY_ENUM_BITS(member, Type, last) fact_bits(Type::last) +
#define LEXFOR_KEY_FLAG_BITS(member) 1 +
    LEXFOR_FACT_LIST(LEXFOR_KEY_ENUM_BITS, LEXFOR_KEY_FLAG_BITS)
#undef LEXFOR_KEY_ENUM_BITS
#undef LEXFOR_KEY_FLAG_BITS
        static_cast<unsigned>(std::bit_width(kUnlistedJurisdiction));
static_assert(kFactKeyBits <= 64, "the fact key no longer fits 64 bits");

// The one packing rule, over the facts as the wire carries them: the
// enum facts one byte each in LEXFOR_FACT_LIST order, the flag word
// (flag_word's layout) and the jurisdiction code.  fact_key and
// serve::wire::key_request both call it, so a key packed from a request
// frame equals the key of the scenario that frame decodes to.
[[nodiscard]] FactKey pack_fact_key(const std::uint8_t* enum_bytes,
                                    std::uint32_t flags,
                                    std::string_view jurisdiction) noexcept;

[[nodiscard]] FactKey fact_key(const Scenario& s) noexcept;

struct FactKeyHash {
  // util::ShardedLruCache takes the shard from the high bits of
  // hash * golden ratio and the bucket from the low bits, and
  // serve::VerdictTable its set from the high bits; the raw packed bits
  // cluster in both, so fold the high bits down and multiply before
  // handing the key over.
  [[nodiscard]] std::size_t operator()(FactKey k) const noexcept {
    return static_cast<std::size_t>((k.bits ^ (k.bits >> 29)) *
                                    0xbf58476d1ce4e5b9ULL);
  }
};

}  // namespace lexfor::legal
