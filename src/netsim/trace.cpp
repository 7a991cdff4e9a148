#include "netsim/trace.h"

#include "crypto/crc32.h"

namespace lexfor::netsim {
namespace {

constexpr std::uint32_t kMagic = 0x4C584654;  // "LXFT"
constexpr std::uint16_t kVersion = 1;

}  // namespace

Bytes Trace::serialize() const {
  Bytes out;
  append_u32(out, kMagic);
  append_u16(out, kVersion);
  append_u32(out, static_cast<std::uint32_t>(records_.size()));
  for (const auto& r : records_) {
    append_u64(out, static_cast<std::uint64_t>(r.at.us));
    append_u64(out, r.header.src.value());
    append_u64(out, r.header.dst.value());
    append_u16(out, r.header.src_port);
    append_u16(out, r.header.dst_port);
    out.push_back(static_cast<std::uint8_t>(r.header.protocol));
    append_u32(out, r.header.payload_size);
    out.push_back(r.payload.has_value() ? 1 : 0);
    if (r.payload.has_value()) {
      append_u32(out, static_cast<std::uint32_t>(r.payload->size()));
      out.insert(out.end(), r.payload->begin(), r.payload->end());
    }
  }
  append_u32(out, crypto::crc32(out));
  return out;
}

Result<Trace> Trace::deserialize(const Bytes& data) {
  if (data.size() < 14) return InvalidArgument("trace: truncated header");

  // CRC check first: the last 4 bytes cover everything before them.
  const std::uint32_t stored_crc = read_u32(data, data.size() - 4);
  const std::uint32_t computed =
      crypto::crc32(data.data(), data.size() - 4);
  if (stored_crc != computed) {
    return FailedPrecondition("trace: CRC mismatch (corrupted or tampered)");
  }

  std::size_t pos = 0;
  if (read_u32(data, pos) != kMagic) {
    return InvalidArgument("trace: bad magic");
  }
  pos += 4;
  const std::uint16_t version = read_u16(data, pos);
  pos += 2;
  if (version != kVersion) {
    return InvalidArgument("trace: unsupported version " +
                           std::to_string(version));
  }
  const std::uint32_t count = read_u32(data, pos);
  pos += 4;

  const std::size_t body_end = data.size() - 4;
  Trace trace;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Fixed part: 8+8+8+2+2+1+4+1 = 34 bytes.
    if (pos + 34 > body_end) return InvalidArgument("trace: truncated record");
    TraceRecord r;
    r.at = SimTime::from_us(static_cast<std::int64_t>(read_u64(data, pos)));
    pos += 8;
    r.header.src = NodeId{read_u64(data, pos)};
    pos += 8;
    r.header.dst = NodeId{read_u64(data, pos)};
    pos += 8;
    r.header.src_port = read_u16(data, pos);
    pos += 2;
    r.header.dst_port = read_u16(data, pos);
    pos += 2;
    // Only the canonical encodings decode, so two byte strings (two
    // custody digests) never decode to one trace.
    const std::uint8_t protocol = data[pos];
    if (protocol != static_cast<std::uint8_t>(Protocol::kTcp) &&
        protocol != static_cast<std::uint8_t>(Protocol::kUdp)) {
      return InvalidArgument("trace: unknown protocol " +
                             std::to_string(protocol));
    }
    r.header.protocol = static_cast<Protocol>(protocol);
    pos += 1;
    r.header.payload_size = read_u32(data, pos);
    pos += 4;
    const std::uint8_t payload_flag = data[pos];
    if (payload_flag > 1) {
      return InvalidArgument("trace: payload flag " +
                             std::to_string(payload_flag) + " is not 0 or 1");
    }
    const bool has_payload = payload_flag == 1;
    pos += 1;
    if (has_payload) {
      if (pos + 4 > body_end) return InvalidArgument("trace: truncated length");
      const std::uint32_t len = read_u32(data, pos);
      pos += 4;
      if (pos + len > body_end) {
        return InvalidArgument("trace: truncated payload");
      }
      r.payload = Bytes(data.begin() + static_cast<std::ptrdiff_t>(pos),
                        data.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
    trace.add(std::move(r));
  }
  if (pos != body_end) {
    return InvalidArgument("trace: trailing bytes after records");
  }
  return trace;
}

std::uint64_t Trace::payload_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : records_) {
    if (r.payload.has_value()) total += r.payload->size();
  }
  return total;
}

}  // namespace lexfor::netsim
