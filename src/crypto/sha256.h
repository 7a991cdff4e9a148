// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for evidence integrity (chain of custody), disk imaging, and the
// hash-based known-file search of Table-1 scene 18.  Streaming interface
// plus one-shot helpers.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace lexfor::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { reset(); }

  // Resets to the initial state so the object can be reused.
  void reset() noexcept;

  // Absorbs `len` bytes.
  void update(const std::uint8_t* data, std::size_t len) noexcept;
  void update(const Bytes& data) noexcept {
    update(data.data(), data.size());
  }
  void update(std::string_view s) noexcept {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest.  The object must be reset() before
  // further use.
  [[nodiscard]] Digest finish() noexcept;

  // One-shot helpers.
  [[nodiscard]] static Digest hash(const Bytes& data) noexcept;
  [[nodiscard]] static std::string hex(const Bytes& data);

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::uint32_t h_[8];
  std::uint8_t buffer_[64];
  std::size_t buffered_;
  std::uint64_t total_len_;
};

// HMAC-SHA256 (RFC 2104): keyed integrity for chain-of-custody records.
[[nodiscard]] Sha256::Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept;

}  // namespace lexfor::crypto
