#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>

namespace lexfor::serve::wire {
namespace {

// Reject messages must stay inside the small-string buffer (<= 15
// bytes on libstdc++/libc++): the decoder promises a heap-free reject
// path, and Status copies the message into a std::string.
Status Malformed(const char* msg) {
  return Status{StatusCode::kInvalidArgument, msg};
}
Status VersionSkew() {
  return Status{StatusCode::kFailedPrecondition, "version skew"};
}

// Raw LE primitives over the frame buffer.  memcpy is the sanctioned
// unaligned-access idiom (see util/bytes.h).
std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

// Inclusive upper bounds of the enum ranges the decoder accepts: the
// request's enum facts take theirs from LEXFOR_FACT_LIST, the response
// enums from these.  A byte outside the range cannot name a doctrine
// posture, so the frame is malformed; accepting it would round-trip
// but hand the engine an impossible scenario.
constexpr std::uint8_t kMaxProcess =
    static_cast<std::uint8_t>(legal::ProcessKind::kWiretapOrder);
constexpr std::uint8_t kMaxProof =
    static_cast<std::uint8_t>(legal::StandardOfProof::kProbableCausePlus);
constexpr std::uint8_t kMaxStatusCode =
    static_cast<std::uint8_t>(StatusCode::kResourceExhausted);

// Writes the kHeaderBytes header at `p`.
void write_header(FrameKind kind, std::uint64_t request_id,
                  std::size_t frame_len, std::uint8_t* p) noexcept {
  const std::uint32_t magic = kMagic;
  const auto len = static_cast<std::uint32_t>(frame_len);
  std::memcpy(p, &magic, sizeof(magic));
  p[4] = kWireVersion;
  p[5] = static_cast<std::uint8_t>(kind);
  p[6] = 0;  // reserved
  p[7] = 0;
  std::memcpy(p + 8, &len, sizeof(len));
  std::memcpy(p + kRequestIdOffset, &request_id, sizeof(request_id));
}

// Everything decode_request checks, sans output.  Returns the parsed
// string extents through the out-params so decode_request can assign
// without re-walking.  Allocation-free.
Status validate_request_impl(std::span<const std::uint8_t> frame,
                             std::size_t* name_at, std::size_t* name_len,
                             std::size_t* juris_at,
                             std::size_t* juris_len) noexcept {
  if (frame.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = frame.data();
  if (get_u32(p) != kMagic) return Malformed("bad magic");
  if (p[4] != kWireVersion) return VersionSkew();
  if (p[5] != static_cast<std::uint8_t>(FrameKind::kRequest)) {
    return Malformed("bad kind");
  }
  if (p[6] != 0 || p[7] != 0) return Malformed("bad reserved");
  if (get_u32(p + 8) != frame.size()) return Malformed("bad length");

  std::size_t at = kHeaderBytes;
  const auto remaining = [&] { return frame.size() - at; };
  if (remaining() < 4) return Malformed("truncated");
  const std::uint32_t nlen = get_u32(p + at);
  at += 4;
  if (nlen > kMaxStringBytes || nlen > remaining()) {
    return Malformed("bad name len");
  }
  *name_at = at;
  *name_len = nlen;
  at += nlen;

  if (remaining() < kRequestFixedPayloadBytes - 4) {
    return Malformed("truncated");
  }
#define LEXFOR_CHECK_ENUM(member, Type, last)                    \
  if (p[at++] > static_cast<std::uint8_t>(legal::Type::last)) { \
    return Malformed("bad " #member);                           \
  }
  LEXFOR_FACT_LIST(LEXFOR_CHECK_ENUM, LEXFOR_FACT_SKIP)
#undef LEXFOR_CHECK_ENUM
  const std::uint32_t bits = get_u32(p + at);
  at += 4;
  if ((bits >> kScenarioBoolCount) != 0) return Malformed("bad flags");

  const std::uint32_t jlen = get_u32(p + at);
  at += 4;
  if (jlen > kMaxStringBytes || jlen > remaining()) {
    return Malformed("bad juris len");
  }
  *juris_at = at;
  *juris_len = jlen;
  at += jlen;

  if (at != frame.size()) return Malformed("overlong");
  return Status::Ok();
}

}  // namespace

Result<FrameInfo> peek_frame(std::span<const std::uint8_t> buf) {
  if (buf.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = buf.data();
  if (get_u32(p) != kMagic) return Malformed("bad magic");
  const std::uint8_t kind = p[5];
  if (kind != static_cast<std::uint8_t>(FrameKind::kRequest) &&
      kind != static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return Malformed("bad kind");
  }
  // The reserved word is a v1 payload rule, checked by decode_*: a
  // future revision may use it, and peek must stay able to skip such
  // frames.
  const std::uint32_t frame_len = get_u32(p + 8);
  if (frame_len < kHeaderBytes || frame_len > buf.size()) {
    return Malformed("bad length");
  }
  FrameInfo info;
  info.version = p[4];
  info.kind = static_cast<FrameKind>(kind);
  info.request_id = get_u64(p + kRequestIdOffset);
  info.frame_len = frame_len;
  return info;
}

void encode_request(const legal::Scenario& s, std::uint64_t request_id,
                    std::vector<std::uint8_t>& out) {
  const std::size_t name_len = std::min(s.name.size(), kMaxStringBytes);
  const std::size_t juris_len =
      std::min(s.jurisdiction.size(), kMaxStringBytes);
  const std::size_t frame_len =
      kHeaderBytes + kRequestFixedPayloadBytes + name_len + juris_len;
  const std::size_t at = out.size();
  out.resize(at + kHeaderBytes);
  write_header(FrameKind::kRequest, request_id, frame_len, out.data() + at);
  put_u32(out, static_cast<std::uint32_t>(name_len));
  out.insert(out.end(), s.name.data(), s.name.data() + name_len);
#define LEXFOR_PUT_ENUM(member, Type, last) \
  out.push_back(static_cast<std::uint8_t>(s.member));
  LEXFOR_FACT_LIST(LEXFOR_PUT_ENUM, LEXFOR_FACT_SKIP)
#undef LEXFOR_PUT_ENUM
  put_u32(out, legal::flag_word(s));
  put_u32(out, static_cast<std::uint32_t>(juris_len));
  out.insert(out.end(), s.jurisdiction.data(),
             s.jurisdiction.data() + juris_len);
}

Status key_request(std::span<const std::uint8_t> frame,
                   std::uint64_t& request_id, legal::FactKey& key) {
  std::size_t name_at = 0, name_len = 0, juris_at = 0, juris_len = 0;
  if (Status st = validate_request_impl(frame, &name_at, &name_len, &juris_at,
                                        &juris_len);
      !st.ok()) {
    return st;
  }
  // The enum bytes follow the name and the flag word follows them, in
  // the layout pack_fact_key reads.
  const std::uint8_t* p = frame.data();
  const std::uint8_t* enums = p + name_at + name_len;
  request_id = get_u64(p + kRequestIdOffset);
  key = legal::pack_fact_key(
      enums, get_u32(enums + legal::kEnumFactCount),
      std::string_view(reinterpret_cast<const char*>(p + juris_at),
                       juris_len));
  return Status::Ok();
}

Status decode_request(std::span<const std::uint8_t> frame, Request& out) {
  std::size_t name_at = 0, name_len = 0, juris_at = 0, juris_len = 0;
  if (Status st = validate_request_impl(frame, &name_at, &name_len, &juris_at,
                                        &juris_len);
      !st.ok()) {
    return st;
  }
  // Fully validated: every write below succeeds.  assign() reuses the
  // strings' existing capacity, so a recycled Request decodes without
  // heap traffic once warm.
  const std::uint8_t* p = frame.data();
  out.request_id = get_u64(p + kRequestIdOffset);
  legal::Scenario& s = out.scenario;
  s.name.assign(reinterpret_cast<const char*>(p + name_at), name_len);
  std::size_t at = name_at + name_len;
#define LEXFOR_GET_ENUM(member, Type, last) \
  s.member = static_cast<legal::Type>(p[at++]);
  LEXFOR_FACT_LIST(LEXFOR_GET_ENUM, LEXFOR_FACT_SKIP)
#undef LEXFOR_GET_ENUM
  legal::set_flag_word(get_u32(p + at), s);
  s.jurisdiction.assign(reinterpret_cast<const char*>(p + juris_at),
                        juris_len);
  return Status::Ok();
}

void encode_response(const Response& r, std::vector<std::uint8_t>& out) {
  // Every byte is written below.  Left uninitialised, the frame is
  // stored straight into `out`; zeroing it first made GCC 12 build it
  // on the stack and copy it, which tripled the encode's cost.
  std::array<std::uint8_t, kResponseFrameBytes> f;
  write_header(FrameKind::kResponse, r.request_id, kResponseFrameBytes,
               f.data());
  std::uint8_t* q = f.data() + kHeaderBytes;
  q[0] = static_cast<std::uint8_t>(r.status);
  q[1] = static_cast<std::uint8_t>((r.needs_process ? 1u : 0u) |
                                   (r.cache_hit ? 2u : 0u));
  q[2] = static_cast<std::uint8_t>(r.required_process);
  q[3] = static_cast<std::uint8_t>(r.required_proof);
  std::memcpy(q + 4, &r.server_ns, sizeof(r.server_ns));
  out.insert(out.end(), f.begin(), f.end());
}

Status decode_response(std::span<const std::uint8_t> frame, Response& out) {
  if (frame.size() < kHeaderBytes) return Malformed("truncated");
  const std::uint8_t* p = frame.data();
  if (get_u32(p) != kMagic) return Malformed("bad magic");
  if (p[4] != kWireVersion) return VersionSkew();
  if (p[5] != static_cast<std::uint8_t>(FrameKind::kResponse)) {
    return Malformed("bad kind");
  }
  if (p[6] != 0 || p[7] != 0) return Malformed("bad reserved");
  if (get_u32(p + 8) != frame.size()) return Malformed("bad length");
  if (frame.size() != kResponseFrameBytes) return Malformed("bad length");
  const std::uint8_t* q = p + kHeaderBytes;
  if (q[0] > kMaxStatusCode) return Malformed("bad status");
  if ((q[1] & ~3u) != 0) return Malformed("bad flags");
  if (q[2] > kMaxProcess) return Malformed("bad process");
  if (q[3] > kMaxProof) return Malformed("bad proof");
  out.request_id = get_u64(p + kRequestIdOffset);
  out.status = static_cast<StatusCode>(q[0]);
  out.needs_process = (q[1] & 1u) != 0;
  out.cache_hit = (q[1] & 2u) != 0;
  out.required_process = static_cast<legal::ProcessKind>(q[2]);
  out.required_proof = static_cast<legal::StandardOfProof>(q[3]);
  out.server_ns = get_u64(q + 4);
  return Status::Ok();
}

}  // namespace lexfor::serve::wire
