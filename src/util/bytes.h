// Byte-buffer helpers: hex encoding and simple serialization.
//
// Evidence hashing, disk-image content and packet payloads are all
// `std::vector<std::uint8_t>`; this header centralizes the conversions.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lexfor {

using Bytes = std::vector<std::uint8_t>;

// Lowercase hex encoding ("deadbeef").
[[nodiscard]] std::string to_hex(const std::uint8_t* data, std::size_t len);

// The bytes of a UTF-8/ASCII string.
[[nodiscard]] Bytes to_bytes(std::string_view s);

// Little-endian integer append/read, used by the deterministic
// serializers (chain-of-custody records, disk images).
void append_u16(Bytes& out, std::uint16_t v);
void append_u32(Bytes& out, std::uint32_t v);
void append_u64(Bytes& out, std::uint64_t v);
[[nodiscard]] std::uint16_t read_u16(const Bytes& in, std::size_t offset);
[[nodiscard]] std::uint32_t read_u32(const Bytes& in, std::size_t offset);
[[nodiscard]] std::uint64_t read_u64(const Bytes& in, std::size_t offset);

// Big-endian word load and store on raw (possibly unaligned) byte
// buffers.  memcpy into a local array is the sanctioned idiom: it is
// defined for any alignment (unlike casting to uint32_t*) and compiles
// to a single move on every mainstream target.  SHA-256 uses these
// instead of open-coding the shifts.
[[nodiscard]] std::uint32_t load_be32(const std::uint8_t* p) noexcept;
void store_be32(std::uint8_t* p, std::uint32_t v) noexcept;

}  // namespace lexfor
