#include "util/bytes.h"

#include <cassert>
#include <cstring>

namespace lexfor {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xF]);
  }
  return out;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

void append_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t read_u16(const Bytes& in, std::size_t offset) {
  assert(offset + 2 <= in.size());
  return static_cast<std::uint16_t>(in[offset] | (in[offset + 1] << 8));
}

std::uint32_t read_u32(const Bytes& in, std::size_t offset) {
  assert(offset + 4 <= in.size());
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[offset + static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t read_u64(const Bytes& in, std::size_t offset) {
  assert(offset + 8 <= in.size());
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[offset + static_cast<std::size_t>(i)];
  return v;
}

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  std::uint8_t b[4];
  std::memcpy(b, p, sizeof b);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  std::memcpy(p, b, sizeof b);
}

}  // namespace lexfor
