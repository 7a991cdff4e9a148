// Wire-format fuzz gate (ISSUE 10 satellite): deterministic seeded
// byte mutations against the strict decoder.
//
// Three properties, over every library scene and Table-1 row:
//
//   1. the decoder NEVER crashes, whatever the bytes;
//   2. any frame the decoder accepts re-encodes BYTE-IDENTICAL —
//      i.e. the decoder only ever accepts the one canonical encoding
//      of a scenario (a mutated frame that still decodes must be a
//      no-op mutation);
//   3. encode -> decode -> encode is byte-identical for all pristine
//      frames (canonical round trip).
//
// Mutations come from Rng::sub_stream so every trial is reproducible
// from (kSeed, trial) alone, and key_request must agree with
// decode_request on every mutant: the same status, and on success the
// same id and legal::fact_key of the decoded scenario (the server keys
// and classifies every frame with key_request, admitted or shed, and
// decodes only on a table miss; a disagreement would answer a frame
// from another scenario's verdict, or let overload reclassify traffic).

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "legal/fact_key.h"
#include "legal/scene_table.h"
#include "legal/table1.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace lexfor::serve::wire {
namespace {

constexpr std::uint64_t kSeed = 0xF0221EA51ULL;

[[nodiscard]] std::vector<std::vector<std::uint8_t>> pristine_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t id = 1;
  for (const auto& d : legal::library::scenes()) {
    std::vector<std::uint8_t> f;
    encode_request(d.build(), id++, f);
    frames.push_back(std::move(f));
  }
  for (const auto& scene : legal::table1::all_scenes()) {
    std::vector<std::uint8_t> f;
    encode_request(scene.scenario, id++, f);
    frames.push_back(std::move(f));
  }
  return frames;
}

// Property 2 + key/decode agreement, for one candidate buffer.
void check_mutant(const std::vector<std::uint8_t>& mutant) {
  Request req;
  const Status decoded = decode_request(mutant, req);
  std::uint64_t id = 0;
  legal::FactKey key;
  const Status keyed = key_request(mutant, id, key);
  ASSERT_EQ(decoded.code(), keyed.code()) << "key and decode disagree";
  if (!decoded.ok()) return;
  ASSERT_EQ(id, req.request_id) << "key and decode read different ids";
  ASSERT_EQ(key, legal::fact_key(req.scenario))
      << "key_request packed another key than the decoded scenario's";
  std::vector<std::uint8_t> again;
  encode_request(req.scenario, req.request_id, again);
  ASSERT_EQ(again, mutant)
      << "decoder accepted a non-canonical frame";
}

TEST(WireFuzzTest, PristineFramesRoundTripCanonically) {
  for (const auto& frame : pristine_frames()) {
    Request req;
    ASSERT_TRUE(decode_request(frame, req).ok());
    std::vector<std::uint8_t> again;
    encode_request(req.scenario, req.request_id, again);
    ASSERT_EQ(again, frame);
  }
}

TEST(WireFuzzTest, TruncationNeverCrashesOrPasses) {
  for (const auto& frame : pristine_frames()) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      std::vector<std::uint8_t> mutant(frame.begin(),
                                       frame.begin() + cut);
      Request req;
      // A strict decoder cannot accept a strict prefix: frame_len no
      // longer matches.
      ASSERT_FALSE(decode_request(mutant, req).ok()) << "cut=" << cut;
      std::uint64_t id = 0;
      legal::FactKey key;
      ASSERT_FALSE(key_request(mutant, id, key).ok());
    }
  }
}

TEST(WireFuzzTest, SingleBitFlipsAreRejectedOrNoOps) {
  const auto frames = pristine_frames();
  std::uint64_t trial = 0;
  for (const auto& frame : frames) {
    // Every byte position, one seeded bit each, keeps the sweep
    // exhaustive in position while staying fast.
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      Rng rng = Rng::sub_stream(kSeed, trial++);
      auto mutant = frame;
      mutant[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      check_mutant(mutant);
    }
  }
}

TEST(WireFuzzTest, RandomByteStormsNeverCrash) {
  const auto frames = pristine_frames();
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    Rng rng = Rng::sub_stream(kSeed ^ 0xB10B, trial);
    auto mutant = frames[rng.uniform(frames.size())];
    const std::uint64_t flips = 1 + rng.uniform(16);
    for (std::uint64_t i = 0; i < flips; ++i) {
      mutant[rng.uniform(mutant.size())] =
          static_cast<std::uint8_t>(rng.uniform(256));
    }
    check_mutant(mutant);
  }
}

TEST(WireFuzzTest, VersionSkewIsAlwaysFailedPrecondition) {
  for (const auto& frame : pristine_frames()) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      if (v == kWireVersion) continue;
      auto mutant = frame;
      mutant[4] = static_cast<std::uint8_t>(v);
      Request req;
      EXPECT_EQ(decode_request(mutant, req).code(),
                StatusCode::kFailedPrecondition);
      // peek must still navigate the frame (version-invariant header).
      const auto info = peek_frame(mutant);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info.value().frame_len, mutant.size());
    }
  }
}

TEST(WireFuzzTest, PureNoiseNeverCrashes) {
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    Rng rng = Rng::sub_stream(kSeed ^ 0x4015E, trial);
    std::vector<std::uint8_t> noise(rng.uniform(200));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform(256));
    Request req;
    (void)decode_request(noise, req);
    std::uint64_t id = 0;
    legal::FactKey key;
    (void)key_request(noise, id, key);
    (void)peek_frame(noise);
    Response resp;
    (void)decode_response(noise, resp);
  }
}

}  // namespace
}  // namespace lexfor::serve::wire
