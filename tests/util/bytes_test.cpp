#include "util/bytes.h"

#include <gtest/gtest.h>

namespace lexfor {
namespace {

TEST(BytesTest, ToHexIsLowercaseTwoDigitsPerByte) {
  const Bytes data = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  EXPECT_EQ(to_hex(data.data(), data.size()), "deadbeef007f");
  EXPECT_EQ(to_hex(data.data(), 0), "");
}

TEST(BytesTest, ToBytesKeepsEveryChar) {
  const std::string s = "forensic evidence";
  const Bytes b = to_bytes(s);
  EXPECT_EQ(std::string(b.begin(), b.end()), s);
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(BytesTest, IntegerAppendReadRoundTrip) {
  Bytes buf;
  append_u16(buf, 0x1234);
  append_u32(buf, 0xDEADBEEF);
  append_u64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(buf.size(), 14u);
  EXPECT_EQ(read_u16(buf, 0), 0x1234);
  EXPECT_EQ(read_u32(buf, 2), 0xDEADBEEFu);
  EXPECT_EQ(read_u64(buf, 6), 0x0123456789ABCDEFULL);
}

TEST(BytesTest, IntegersAreLittleEndian) {
  Bytes buf;
  append_u32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(BytesTest, FixedEndianLoadReadsBigEndian) {
  const std::uint8_t raw[8] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(load_be32(raw), 0x01020304u);
  EXPECT_EQ(load_be32(raw + 4), 0x05060708u);
}

TEST(BytesTest, FixedEndianLoadsWorkAtUnalignedOffsets) {
  std::uint8_t raw[9] = {0xFF, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  // +1 is misaligned for a uint32_t*; the memcpy idiom must not care.
  EXPECT_EQ(load_be32(raw + 1), 0x01020304u);
  EXPECT_EQ(load_be32(raw + 5), 0x05060708u);
}

TEST(BytesTest, FixedEndianStoresRoundTripThroughLoads) {
  std::uint8_t out[5] = {};
  store_be32(out, 0xDEADBEEFu);
  EXPECT_EQ(load_be32(out), 0xDEADBEEFu);
  EXPECT_EQ(out[0], 0xDE);
  EXPECT_EQ(out[3], 0xEF);
  store_be32(out + 1, 0x01020304u);  // unaligned
  EXPECT_EQ(load_be32(out + 1), 0x01020304u);
  EXPECT_EQ(out[0], 0xDE);
}

}  // namespace
}  // namespace lexfor
