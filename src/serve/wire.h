// serve::wire — the compact binary scenario encoding of the verdict
// service.
//
// A verdict server answering compliance queries at ISP traffic rates
// cannot parse text: the wire format is a framed request/response
// encoding under a versioned header carrying a request id.  Every field
// is fixed-width little-endian and strings are length-prefixed.  The
// request payload is the name, the enum facts one byte each, the flag
// facts bit-packed into one u32, then the jurisdiction.  The enum bytes,
// their range checks and the flag word are generated from
// LEXFOR_FACT_LIST (legal/scenario.h), the same list the canonical
// fingerprint (legal/batch.cpp) and legal::fact_key expand, so a
// decoded request carries exactly the facts the client encoded and
// lands on the same verdict-cache key.  The wire tests
// RoundTripPreservesFingerprint and FleetFramesAndFingerprintsArePinned
// hold both to that.  The enum bytes and flag word are also exactly
// what legal::pack_fact_key reads, so key_request keys a frame without
// decoding it.
//
// The decoder is STRICT and CANONICAL: magic, version, kind, the
// zeroed reserved word, the exact frame length, string-length bounds,
// enum ranges and the unused flag bits are all validated before one
// output byte is written.  Consequences:
//
//   - every accepted frame re-encodes byte-identical (there is exactly
//     one encoding of any scenario, so encode(decode(f)) == f — the
//     property the wire fuzz gate leans on), and
//   - the reject path never allocates: validation reads the input span
//     only, and the Status messages are short enough for the small-
//     string buffer.  A server being fuzzed or flooded with garbage
//     sheds it at decode cost, not at malloc cost.
//
// Reject taxonomy (mirrored by serve::VerdictServer's admission
// counters): a frame whose magic parses but whose version byte is
// unknown fails with kFailedPrecondition ("version skew" — the peer
// speaks a different protocol revision); every other defect is
// kInvalidArgument ("malformed").  Truncation inside the header is
// malformed too: there is no version byte to trust.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "legal/fact_key.h"
#include "legal/scenario.h"
#include "util/status.h"

namespace lexfor::serve::wire {

// 'L' 'X' 'S' 'V' in byte order on the wire (read as LE u32).
inline constexpr std::uint32_t kMagic = 0x5653584Cu;
inline constexpr std::uint8_t kWireVersion = 1;

enum class FrameKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

// Fixed header: magic u32 | version u8 | kind u8 | reserved u16 (zero)
// | frame_len u32 (total frame bytes, header included) | request_id u64.
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::size_t kRequestIdOffset = 12;

// Hard per-string bound: keeps a hostile length prefix from turning
// into a giant allocation before the frame-length cross-check runs.
inline constexpr std::size_t kMaxStringBytes = 4096;

// Number of Scenario booleans bit-packed into the flags word, in
// LEXFOR_FACT_LIST order (legal::flag_word).  Bits >= this count must
// be zero.
inline constexpr unsigned kScenarioBoolCount = legal::kFlagFactCount;

// Fixed-size portion of a request payload: one byte per enum fact +
// flags u32 + two string length prefixes.
inline constexpr std::size_t kRequestFixedPayloadBytes =
    legal::kEnumFactCount + 4 + 4 + 4;

// Response payload: status u8 | flags u8 (bit0 needs_process, bit1
// cache_hit) | required_process u8 | required_proof u8 | server_ns u64.
inline constexpr std::size_t kResponsePayloadBytes = 4 + 8;
inline constexpr std::size_t kResponseFrameBytes =
    kHeaderBytes + kResponsePayloadBytes;

struct Request {
  std::uint64_t request_id = 0;
  legal::Scenario scenario;
};

struct Response {
  std::uint64_t request_id = 0;
  StatusCode status = StatusCode::kOk;
  bool needs_process = false;
  bool cache_hit = false;
  legal::ProcessKind required_process = legal::ProcessKind::kNone;
  legal::StandardOfProof required_proof = legal::StandardOfProof::kNone;
  // Server-side handling time for this request, nanoseconds (what
  // serve::VerdictServer times is documented at VerdictServer::serve).
  std::uint64_t server_ns = 0;
};

// Header fields of one frame, validated but not yet decoded.
struct FrameInfo {
  std::uint8_t version = 0;
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t request_id = 0;
  std::size_t frame_len = 0;  // bytes this frame occupies in the buffer
};

// Validates the header at the FRONT of `buf` (which may hold further
// concatenated frames) without touching the payload: magic, kind,
// reserved word, and that frame_len is in [kHeaderBytes, buf.size()].
// The header layout is declared VERSION-INVARIANT, so peek does NOT
// reject version skew — it reports the version and a trustworthy
// frame_len, letting a server skip a future-revision frame and keep
// its place in the stream (decode_* still refuses the payload).  Never
// allocates on failure.  This is how a server walks a connection
// buffer: peek, slice frame_len bytes, decode, advance; a peek failure
// means framing is lost and the rest of the buffer is garbage.
[[nodiscard]] Result<FrameInfo> peek_frame(std::span<const std::uint8_t> buf);

// Appends one encoded request frame to `out`, which grows
// geometrically, so appending n frames to one buffer is linear in n.
// The encoding is canonical: there is exactly one byte sequence for
// any scenario.
// Strings longer than kMaxStringBytes are truncated at encode time so
// an encoded frame always decodes (the library/Table-1 names are tens
// of bytes; the cap is a wire invariant, not a working limit).
void encode_request(const legal::Scenario& s, std::uint64_t request_id,
                    std::vector<std::uint8_t>& out);

// Strict decode of exactly one request frame (`frame.size()` must equal
// the header's frame_len).  On success `out` holds the request — string
// members are assign()ed, so a reused Request keeps its capacity and a
// steady-state decode loop performs no heap traffic.  On failure `out`
// is untouched and nothing is allocated.
[[nodiscard]] Status decode_request(std::span<const std::uint8_t> frame,
                                    Request& out);

// Every check decode_request performs, then the request's id and its
// legal::FactKey packed straight from the frame's enum bytes, flag word
// and jurisdiction bytes: no Scenario is built and nothing is
// allocated.  The key equals legal::fact_key of the scenario
// decode_request would produce.  On failure the outputs are untouched.
// The server keys every frame it admits or sheds this way and decodes
// only on a verdict-table miss.
[[nodiscard]] Status key_request(std::span<const std::uint8_t> frame,
                                 std::uint64_t& request_id,
                                 legal::FactKey& key);

// Appends one encoded response frame (fixed kResponseFrameBytes),
// built whole and appended in one call.
void encode_response(const Response& r, std::vector<std::uint8_t>& out);

// Strict decode of exactly one response frame.
[[nodiscard]] Status decode_response(std::span<const std::uint8_t> frame,
                                     Response& out);

}  // namespace lexfor::serve::wire
