#include "crypto/sha256.h"

#include <cstring>

#include "util/bytes.h"

namespace lexfor::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

void Sha256::reset() noexcept {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buffered_ = 0;
  total_len_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + i * 4);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) noexcept {
  total_len_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= 64) {
      // Fast path: process directly from the input.
      process_block(data);
      data += 64;
      len -= 64;
      continue;
    }
    const std::size_t take = std::min(len, std::size_t{64} - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
}

Sha256::Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // length.  Assembled in one stack buffer and absorbed with a single
  // update() call; padding byte-by-byte costs more than the final
  // compression for short messages.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56 ? 56 - buffered_ : 120 - buffered_) + 8;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // total_len_ bookkeeping past this point is irrelevant: bit_len is
  // already captured.
  update(pad, pad_len);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    store_be32(out.data() + i * 4, h_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(const Bytes& data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string Sha256::hex(const Bytes& data) {
  const Digest d = hash(data);
  return to_hex(d.data(), d.size());
}

Sha256::Digest hmac_sha256(const Bytes& key, const Bytes& message) noexcept {
  constexpr std::size_t kBlock = 64;
  Bytes k = key;
  if (k.size() > kBlock) {
    const auto d = Sha256::hash(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0);

  Bytes ipad(kBlock), opad(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const auto inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

}  // namespace lexfor::crypto
