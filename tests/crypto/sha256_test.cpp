#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace lexfor::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::hex(to_bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// The rest of the RFC 1321 suite's inputs, digested with SHA-256.
TEST(Sha256Test, A) {
  EXPECT_EQ(Sha256::hex(to_bytes("a")),
            "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
}

TEST(Sha256Test, MessageDigest) {
  EXPECT_EQ(Sha256::hex(to_bytes("message digest")),
            "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
}

TEST(Sha256Test, Alphabet) {
  EXPECT_EQ(Sha256::hex(to_bytes("abcdefghijklmnopqrstuvwxyz")),
            "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2daf18b73");
}

TEST(Sha256Test, AlphaNumeric) {
  EXPECT_EQ(
      Sha256::hex(to_bytes(
          "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")),
      "db4bfcbd4da0cd85a60c3c37d3fbd8805c77f15fc6b1fdfe614ee0a7c8fdb4c0");
}

TEST(Sha256Test, Digits) {
  EXPECT_EQ(Sha256::hex(to_bytes(
                "1234567890123456789012345678901234567890123456789012"
                "3456789012345678901234567890")),
            "f371bc4a311f2b009eef952dd83ca80e2b60026c8e935592d0f9c308453c813e");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hex(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactlyOneBlock) {
  // 64 bytes: exercises the padding path that adds a full extra block.
  const std::string msg(64, 'x');
  Sha256 h;
  h.update(msg);
  const auto d = h.finish();
  Sha256 h2;
  for (char c : msg) h2.update(std::string(1, c));
  const auto d2 = h2.finish();
  EXPECT_EQ(d, d2);
}

// Messages of n 'x' bytes around the padding boundaries: up to 55 bytes
// the length fits in the last block, from 56 it spills into one more.
// Reproduce with: head -c <n> /dev/zero | tr '\0' x | sha256sum
TEST(Sha256Test, PaddingLengthBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [n, digest] : cases) {
    EXPECT_EQ(Sha256::hex(to_bytes(std::string(n, 'x'))), digest) << n << " bytes";
  }
}

// Two updates split at every offset of a three-block message give the
// one-shot digest, whichever block the split lands in.
TEST(Sha256Test, SplitAtEveryOffsetMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 150; ++i) msg += static_cast<char>('a' + i % 26);
  const Sha256::Digest whole = Sha256::hash(to_bytes(msg));
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, cut));
    h.update(std::string_view(msg).substr(cut));
    ASSERT_EQ(h.finish(), whole) << "split at " << cut;
  }
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  const std::string msg =
      "The right of the people to be secure in their persons, houses, "
      "papers, and effects, against unreasonable searches and seizures, "
      "shall not be violated";
  Sha256 streaming;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    streaming.update(msg.substr(i, 7));
  }
  const auto a = streaming.finish();
  const auto b = Sha256::hash(to_bytes(msg));
  EXPECT_EQ(a, b);
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.update("first");
  (void)h.finish();
  h.reset();
  h.update("abc");
  const auto d = h.finish();
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DifferentInputsDifferentDigests) {
  EXPECT_NE(Sha256::hash(to_bytes("evidence-a")),
            Sha256::hash(to_bytes("evidence-b")));
}

TEST(Sha256Test, StringUpdateMatchesBytesOneShot) {
  const std::string s = "chain of custody";
  Sha256 h;
  h.update(s);
  EXPECT_EQ(h.finish(), Sha256::hash(to_bytes(s)));
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256Test, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto d = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  const auto d = hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const auto d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const Bytes msg(50, 0xcd);
  const auto d = hmac_sha256(key, msg);
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const auto d = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 case 7: a key and a message both longer than one block.
TEST(HmacSha256Test, LongKeyAndLongMessage) {
  const Bytes key(131, 0xaa);
  const auto d = hmac_sha256(
      key, to_bytes("This is a test using a larger than block-size key and a "
                    "larger than block-size data. The key needs to be hashed "
                    "before being used by the HMAC algorithm."));
  EXPECT_EQ(to_hex(d.data(), d.size()),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256Test, KeySensitivity) {
  const Bytes m = to_bytes("custody record");
  EXPECT_NE(hmac_sha256(to_bytes("key-1"), m), hmac_sha256(to_bytes("key-2"), m));
}

}  // namespace
}  // namespace lexfor::crypto
