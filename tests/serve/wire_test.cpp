// serve::wire — framing, strict decoding and the canonical-encoding
// guarantees the server and fuzz gate build on.

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "legal/batch.h"
#include "legal/fact_key.h"
#include "legal/jurisdiction.h"
#include "legal/scene_table.h"
#include "legal/table1.h"
#include "serve/fleet.h"

namespace lexfor::serve::wire {
namespace {

using legal::Scenario;

[[nodiscard]] Scenario sample_scenario() {
  return legal::library::scenes()[0].build();
}

[[nodiscard]] std::vector<std::uint8_t> encode_one(const Scenario& s,
                                                   std::uint64_t id) {
  std::vector<std::uint8_t> out;
  encode_request(s, id, out);
  return out;
}

TEST(WireTest, RequestRoundTripsEveryLibraryScene) {
  for (const auto& d : legal::library::scenes()) {
    const Scenario s = d.build();
    const auto frame = encode_one(s, 42);
    Request req;
    ASSERT_TRUE(decode_request(frame, req).ok()) << d.id;
    EXPECT_EQ(req.request_id, 42u);
    EXPECT_EQ(req.scenario.name, s.name);
    EXPECT_EQ(req.scenario.jurisdiction, s.jurisdiction);
    // Re-encode must reproduce the frame byte for byte: the encoding
    // is canonical.
    std::vector<std::uint8_t> again;
    encode_request(req.scenario, req.request_id, again);
    EXPECT_EQ(again, frame) << d.id;
  }
}

TEST(WireTest, RequestRoundTripsEveryTable1Row) {
  for (const auto& scene : legal::table1::all_scenes()) {
    const auto frame = encode_one(scene.scenario, 7);
    Request req;
    ASSERT_TRUE(decode_request(frame, req).ok()) << scene.number;
    std::vector<std::uint8_t> again;
    encode_request(req.scenario, req.request_id, again);
    EXPECT_EQ(again, frame) << scene.number;
  }
}

// The wire payload order IS the canonical fingerprint order: a decoded
// request must hash to the same verdict-cache key the client's
// scenario did, or the server cache splits per connection.
TEST(WireTest, RoundTripPreservesFingerprint) {
  for (const auto& d : legal::library::scenes()) {
    const Scenario s = d.build();
    Request req;
    ASSERT_TRUE(decode_request(encode_one(s, 1), req).ok());
    EXPECT_EQ(legal::fingerprint(req.scenario), legal::fingerprint(s))
        << d.id;
  }
}

// Both the request payload and the canonical fingerprint are generated
// from LEXFOR_FACT_LIST.  These digests were recorded from the
// hand-written codecs that list replaced: the 66 fleet template frames
// (Table-1 rows, then library scenes, request id 0) concatenated, and
// the 66 fingerprint_hex strings concatenated.  A reordered or
// re-encoded fact moves one of them.
TEST(WireTest, FleetFramesAndFingerprintsArePinned) {
  std::vector<Scenario> mix;
  for (const auto& scene : legal::table1::all_scenes()) {
    mix.push_back(scene.scenario);
  }
  for (const auto& d : legal::library::scenes()) mix.push_back(d.build());
  ASSERT_EQ(mix.size(), 66u);

  std::vector<std::uint8_t> frames;
  std::string prints;
  for (const auto& s : mix) {
    encode_request(s, 0, frames);
    prints += legal::fingerprint_hex(s);
  }
  EXPECT_EQ(crypto::Sha256::hex(frames),
            "43f8bed1e168ce869a1f9fdfce56451f83634880c56c2968e61a8b09b3a187c2");
  EXPECT_EQ(crypto::Sha256::hex(to_bytes(prints)),
            "90d389c942327c5ee0e2144fadb927771200645d63ac1650cf148904277d81ac");
}

TEST(WireTest, PeekReportsHeaderFields) {
  const auto frame = encode_one(sample_scenario(), 0xABCDEF);
  const auto info = peek_frame(frame);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, kWireVersion);
  EXPECT_EQ(info.value().kind, FrameKind::kRequest);
  EXPECT_EQ(info.value().request_id, 0xABCDEFu);
  EXPECT_EQ(info.value().frame_len, frame.size());
}

TEST(WireTest, PeekWalksConcatenatedFrames) {
  std::vector<std::uint8_t> buf;
  encode_request(sample_scenario(), 1, buf);
  const std::size_t first_len = buf.size();
  encode_request(legal::table1::scene(3).scenario, 2, buf);

  const auto a = peek_frame(buf);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().frame_len, first_len);
  const auto b = peek_frame(
      std::span<const std::uint8_t>(buf).subspan(a.value().frame_len));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().request_id, 2u);
}

// peek is version-invariant: an unknown version must still navigate
// (so a server can skip and count it), while decode refuses it.
TEST(WireTest, VersionSkewNavigatesButDoesNotDecode) {
  auto frame = encode_one(sample_scenario(), 9);
  frame[4] = kWireVersion + 1;
  const auto info = peek_frame(frame);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, kWireVersion + 1);

  Request req;
  const Status st = decode_request(frame, req);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::uint64_t id = 0;
  legal::FactKey key;
  EXPECT_EQ(key_request(frame, id, key).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WireTest, TruncatedFramesAreMalformed) {
  const auto frame = encode_one(sample_scenario(), 1);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, kHeaderBytes - 1, kHeaderBytes,
        frame.size() - 1}) {
    Request req;
    const Status st = decode_request(
        std::span<const std::uint8_t>(frame).subspan(0, cut), req);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut=" << cut;
  }
}

TEST(WireTest, RejectsOverlongAndLengthLies) {
  auto frame = encode_one(sample_scenario(), 1);
  // An extra trailing byte: the header's frame_len no longer matches.
  auto longer = frame;
  longer.push_back(0);
  Request req;
  EXPECT_EQ(decode_request(longer, req).code(), StatusCode::kInvalidArgument);

  // Patch frame_len to cover the extra byte: the payload walk must now
  // land short of the declared end ("overlong").
  const std::uint32_t lie = static_cast<std::uint32_t>(longer.size());
  std::memcpy(longer.data() + 8, &lie, sizeof(lie));
  EXPECT_EQ(decode_request(longer, req).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, RejectsBadMagicKindReservedEnumsAndFlags) {
  const auto pristine = encode_one(sample_scenario(), 1);
  Request req;

  auto f = pristine;
  f[0] ^= 0xFF;  // magic
  EXPECT_EQ(decode_request(f, req).code(), StatusCode::kInvalidArgument);

  f = pristine;
  f[5] = 0x7F;  // kind
  EXPECT_EQ(decode_request(f, req).code(), StatusCode::kInvalidArgument);

  f = pristine;
  f[6] = 1;  // reserved
  EXPECT_EQ(decode_request(f, req).code(), StatusCode::kInvalidArgument);

  // Enum bytes sit right after the name.  Blow each one past its range.
  std::uint32_t name_len;
  std::memcpy(&name_len, pristine.data() + kHeaderBytes, sizeof(name_len));
  const std::size_t enums_at = kHeaderBytes + 4 + name_len;
  for (std::size_t i = 0; i < 6; ++i) {
    f = pristine;
    f[enums_at + i] = 0xEE;
    EXPECT_EQ(decode_request(f, req).code(), StatusCode::kInvalidArgument)
        << "enum byte " << i;
  }

  // A flag bit above kScenarioBoolCount must be zero.
  f = pristine;
  f[enums_at + 6 + 3] |= 0x80;  // top bit of the flags u32
  EXPECT_EQ(decode_request(f, req).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, FailedDecodeLeavesOutputUntouched) {
  Request req;
  req.request_id = 77;
  req.scenario.name = "sentinel";
  auto frame = encode_one(sample_scenario(), 1);
  frame[6] = 9;  // reserved byte -> malformed
  ASSERT_FALSE(decode_request(frame, req).ok());
  EXPECT_EQ(req.request_id, 77u);
  EXPECT_EQ(req.scenario.name, "sentinel");
}

// key_request keys a frame without decoding it: it must accept exactly
// what decode_request accepts, give the same id, and give the key
// legal::fact_key gives the decoded scenario.
void expect_key_matches_decode(std::span<const std::uint8_t> frame,
                               std::string_view label) {
  Request req;
  ASSERT_TRUE(decode_request(frame, req).ok()) << label;
  std::uint64_t id = ~req.request_id;
  legal::FactKey key;
  ASSERT_TRUE(key_request(frame, id, key).ok()) << label;
  EXPECT_EQ(id, req.request_id) << label;
  EXPECT_EQ(key, legal::fact_key(req.scenario)) << label;
}

TEST(WireTest, KeyRequestMatchesDecodeOnLibraryAndTable1Scenes) {
  std::uint64_t id = 5;
  for (const auto& d : legal::library::scenes()) {
    expect_key_matches_decode(encode_one(d.build(), id++), d.id);
  }
  for (const auto& scene : legal::table1::all_scenes()) {
    expect_key_matches_decode(encode_one(scene.scenario, id++ << 40),
                              "table1 " + std::to_string(scene.number));
  }
}

TEST(WireTest, KeyRequestMatchesDecodeOnEveryFleetTemplate) {
  FleetOptions fopts;
  fopts.fleet_size = 4096;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(3, wave);
  std::set<std::vector<std::uint8_t>> templates;
  std::span<const std::uint8_t> rest(wave);
  while (!rest.empty()) {
    const auto info = peek_frame(rest);
    ASSERT_TRUE(info.ok());
    const auto frame = rest.subspan(0, info.value().frame_len);
    expect_key_matches_decode(frame, "fleet frame");
    std::vector<std::uint8_t> tmpl(frame.begin(), frame.end());
    std::fill_n(tmpl.begin() + kRequestIdOffset, 8, std::uint8_t{0});
    templates.insert(std::move(tmpl));
    rest = rest.subspan(info.value().frame_len);
  }
  EXPECT_EQ(templates.size(), fleet.mix_size());
}

TEST(WireTest, KeyRequestMatchesDecodeWithEveryFlagSet) {
  for (const auto& scene : legal::table1::all_scenes()) {
    Scenario s = scene.scenario;
    legal::set_flag_word((1u << kScenarioBoolCount) - 1, s);
    ASSERT_EQ(legal::flag_word(s), (1u << kScenarioBoolCount) - 1);
    expect_key_matches_decode(encode_one(s, scene.number),
                              "all flags, table1 " +
                                  std::to_string(scene.number));
  }
}

TEST(WireTest, KeyRequestMatchesDecodeOnListedAndUnlistedJurisdictions) {
  std::vector<std::string> codes = {
      "ZZ", "", "ca", "CAL", "C",
      "CA" + std::string(kMaxStringBytes - 2, 'A')};
  for (const auto& j : legal::jurisdictions()) codes.push_back(j.code);
  for (const std::string& code : codes) {
    Scenario s = legal::table1::scene(7).scenario;
    s.jurisdiction = code;
    const auto frame = encode_one(s, 11);
    expect_key_matches_decode(frame, "jurisdiction '" + code.substr(0, 8) +
                                         "' (" + std::to_string(code.size()) +
                                         " bytes)");
  }
}

TEST(WireTest, ResponseRoundTrips) {
  Response r;
  r.request_id = 0x123456789ABCDEFull;
  r.status = StatusCode::kOk;
  r.needs_process = true;
  r.cache_hit = true;
  r.required_process = legal::ProcessKind::kSearchWarrant;
  r.required_proof = legal::StandardOfProof::kProbableCause;
  r.server_ns = 1234;

  std::vector<std::uint8_t> buf;
  encode_response(r, buf);
  ASSERT_EQ(buf.size(), kResponseFrameBytes);

  Response back;
  ASSERT_TRUE(decode_response(buf, back).ok());
  EXPECT_EQ(back.request_id, r.request_id);
  EXPECT_EQ(back.needs_process, r.needs_process);
  EXPECT_EQ(back.cache_hit, r.cache_hit);
  EXPECT_EQ(back.required_process, r.required_process);
  EXPECT_EQ(back.required_proof, r.required_proof);
  EXPECT_EQ(back.server_ns, r.server_ns);
}

// Golden bytes for three responses, so an encoder and decoder that
// drift together still fail.  Between them they set both flag bits, a
// non-OK status, the largest process and proof values, and a
// request_id and server_ns whose top bits are set.
TEST(WireTest, ResponseFramesArePinned) {
  Response a;
  a.request_id = 1;
  a.cache_hit = true;
  a.required_process = legal::ProcessKind::kSubpoena;
  a.required_proof = legal::StandardOfProof::kMereSuspicion;
  a.server_ns = 1234;

  Response b;
  b.request_id = 0xF0E1D2C3B4A59687ull;
  b.status = StatusCode::kResourceExhausted;
  b.needs_process = true;
  b.cache_hit = true;
  b.required_process = legal::ProcessKind::kWiretapOrder;
  b.required_proof = legal::StandardOfProof::kProbableCausePlus;
  b.server_ns = 0x8899AABBCCDDEEFFull;

  Response c;
  c.request_id = ~std::uint64_t{0};
  c.status = StatusCode::kPermissionDenied;
  c.needs_process = true;
  c.required_process = legal::ProcessKind::kCourtOrder;
  c.required_proof = legal::StandardOfProof::kArticulableFacts;
  c.server_ns = ~std::uint64_t{0};

  // magic "LXSV", version 1, kind 2, reserved 0, frame_len 32, then
  // request_id, status, flags, process, proof and server_ns.
  const std::vector<std::uint8_t> golden = {
      0x4C, 0x58, 0x53, 0x56, 0x01, 0x02, 0x00, 0x00,  // a
      0x20, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x01,
      0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x4C, 0x58, 0x53, 0x56, 0x01, 0x02, 0x00, 0x00,  // b
      0x20, 0x00, 0x00, 0x00, 0x87, 0x96, 0xA5, 0xB4,
      0xC3, 0xD2, 0xE1, 0xF0, 0x08, 0x03, 0x04, 0x04,
      0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88,
      0x4C, 0x58, 0x53, 0x56, 0x01, 0x02, 0x00, 0x00,  // c
      0x20, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF,
      0xFF, 0xFF, 0xFF, 0xFF, 0x04, 0x01, 0x02, 0x02,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
  };
  const std::vector<Response> responses = {a, b, c};
  std::vector<std::uint8_t> buf;
  for (const Response& r : responses) encode_response(r, buf);
  EXPECT_EQ(buf, golden);

  for (std::size_t i = 0; i < responses.size(); ++i) {
    Response back;
    ASSERT_TRUE(decode_response(std::span<const std::uint8_t>(golden).subspan(
                                    i * kResponseFrameBytes,
                                    kResponseFrameBytes),
                                back)
                    .ok())
        << i;
    EXPECT_EQ(back.request_id, responses[i].request_id) << i;
    EXPECT_EQ(back.status, responses[i].status) << i;
    EXPECT_EQ(back.needs_process, responses[i].needs_process) << i;
    EXPECT_EQ(back.cache_hit, responses[i].cache_hit) << i;
    EXPECT_EQ(back.required_process, responses[i].required_process) << i;
    EXPECT_EQ(back.required_proof, responses[i].required_proof) << i;
    EXPECT_EQ(back.server_ns, responses[i].server_ns) << i;
  }
}

TEST(WireTest, ResponseDecodeIsStrict) {
  Response r;
  std::vector<std::uint8_t> buf;
  encode_response(r, buf);

  auto f = buf;
  f[kHeaderBytes + 1] = 0xF0;  // undefined flag bits
  Response back;
  EXPECT_EQ(decode_response(f, back).code(), StatusCode::kInvalidArgument);

  f = buf;
  f[kHeaderBytes + 2] = 0xEE;  // process out of range
  EXPECT_EQ(decode_response(f, back).code(), StatusCode::kInvalidArgument);
}

// Appending frames one by one must grow the buffer geometrically: a
// reserve of exactly one more frame per call reallocates on every
// append, and n appends then copy O(n^2) bytes.
TEST(WireTest, AppendingFramesGrowsTheBufferGeometrically) {
  constexpr int kFrames = 10'000;
  constexpr int kMaxCapacityChanges = 64;
  const Scenario s = sample_scenario();
  std::vector<std::uint8_t> requests;
  int request_growths = 0;
  for (int i = 0; i < kFrames; ++i) {
    const std::size_t before = requests.capacity();
    encode_request(s, static_cast<std::uint64_t>(i), requests);
    if (requests.capacity() != before) ++request_growths;
  }
  EXPECT_LT(request_growths, kMaxCapacityChanges);

  std::vector<std::uint8_t> responses;
  int response_growths = 0;
  Response r;
  for (int i = 0; i < kFrames; ++i) {
    const std::size_t before = responses.capacity();
    r.request_id = static_cast<std::uint64_t>(i);
    encode_response(r, responses);
    if (responses.capacity() != before) ++response_growths;
  }
  EXPECT_LT(response_growths, kMaxCapacityChanges);
  EXPECT_EQ(responses.size(), kFrames * kResponseFrameBytes);
}

}  // namespace
}  // namespace lexfor::serve::wire
