#include "netsim/trace.h"

#include <gtest/gtest.h>

#include "crypto/crc32.h"

namespace lexfor::netsim {
namespace {

TraceRecord record(std::int64_t us, std::uint64_t src, std::uint64_t dst,
                   std::optional<Bytes> payload = std::nullopt) {
  TraceRecord r;
  r.at = SimTime::from_us(us);
  r.header.src = NodeId{src};
  r.header.dst = NodeId{dst};
  r.header.src_port = 1234;
  r.header.dst_port = 80;
  r.header.protocol = Protocol::kTcp;
  r.header.payload_size =
      payload ? static_cast<std::uint32_t>(payload->size()) : 0;
  r.payload = std::move(payload);
  return r;
}

// Rewrites the trailing CRC over the (edited) body, so a test reaches
// the checks behind the CRC.
void reseal(Bytes& data) {
  const std::uint32_t crc = crypto::crc32(data.data(), data.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    data[data.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// Offsets in a serialized trace: a 10-byte header, then each record's
// 34-byte fixed part (at, src, dst, ports, protocol, size, flag).
constexpr std::size_t kFirstProtocol = 10 + 8 + 8 + 8 + 2 + 2;
constexpr std::size_t kFirstPayloadFlag = kFirstProtocol + 1 + 4;

TEST(TraceTest, EmptyTraceRoundTrips) {
  Trace t;
  const auto data = t.serialize();
  const auto back = Trace::deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back.value().empty());
}

TEST(TraceTest, FullContentRoundTrip) {
  Trace t;
  t.add(record(1000, 1, 2, to_bytes("hello")));
  t.add(record(2000, 2, 1, to_bytes("response payload")));
  const auto back = Trace::deserialize(t.serialize());
  ASSERT_TRUE(back.ok());
  const auto& records = back.value().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at, SimTime::from_us(1000));
  EXPECT_EQ(records[0].header.src, NodeId{1});
  EXPECT_EQ(records[0].header.dst, NodeId{2});
  ASSERT_TRUE(records[1].payload.has_value());
  EXPECT_EQ(*records[1].payload, to_bytes("response payload"));
}

TEST(TraceTest, HeaderOnlyRecordsRoundTrip) {
  Trace t;
  t.add(record(500, 7, 8));  // pen/trap style: no payload
  const auto back = Trace::deserialize(t.serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 1u);
  EXPECT_FALSE(back.value().records()[0].payload.has_value());
  EXPECT_EQ(back.value().payload_bytes(), 0u);
}

TEST(TraceTest, PayloadBytesAccumulates) {
  Trace t;
  t.add(record(1, 1, 2, Bytes(10, 0)));
  t.add(record(2, 1, 2, Bytes(20, 0)));
  t.add(record(3, 1, 2));
  EXPECT_EQ(t.payload_bytes(), 30u);
}

TEST(TraceTest, CorruptionIsDetectedByCrc) {
  Trace t;
  t.add(record(1000, 1, 2, to_bytes("evidence")));
  auto data = t.serialize();
  data[12] ^= 0xFF;  // flip a byte in the body
  const auto back = Trace::deserialize(data);
  EXPECT_EQ(back.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TraceTest, TruncationIsRejected) {
  Trace t;
  t.add(record(1000, 1, 2, to_bytes("evidence")));
  auto data = t.serialize();
  data.resize(data.size() / 2);
  EXPECT_FALSE(Trace::deserialize(data).ok());
}

TEST(TraceTest, BadMagicIsRejected) {
  Trace t;
  auto data = t.serialize();
  // Rewrite the magic and fix up the CRC so only the magic is wrong.
  data[0] ^= 0x01;
  reseal(data);
  const auto back = Trace::deserialize(data);
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceTest, ManyRecordsRoundTrip) {
  Trace t;
  for (int i = 0; i < 1000; ++i) {
    t.add(record(i, static_cast<std::uint64_t>(i % 5),
                 static_cast<std::uint64_t>(i % 7),
                 i % 3 == 0 ? std::optional<Bytes>(Bytes(
                                  static_cast<std::size_t>(i % 50), 0xCC))
                            : std::nullopt));
  }
  const auto back = Trace::deserialize(t.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 1000u);
  EXPECT_EQ(back.value().payload_bytes(), t.payload_bytes());
}

TEST(TraceTest, ProtocolByteOtherThanTcpOrUdpIsRejected) {
  Trace t;
  t.add(record(1000, 1, 2));
  const Bytes good = t.serialize();
  ASSERT_EQ(good[kFirstProtocol], 6);
  for (int v = 0; v < 256; ++v) {
    Bytes data = good;
    data[kFirstProtocol] = static_cast<std::uint8_t>(v);
    reseal(data);
    const auto back = Trace::deserialize(data);
    if (v == 6 || v == 17) {
      ASSERT_TRUE(back.ok()) << v;
      EXPECT_EQ(back.value().records()[0].header.protocol,
                static_cast<Protocol>(v));
    } else {
      EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument) << v;
    }
  }
}

TEST(TraceTest, PayloadFlagOtherThanZeroOrOneIsRejected) {
  Trace t;
  t.add(record(1000, 1, 2, to_bytes("ab")));  // flag 1, then the payload
  const Bytes good = t.serialize();
  ASSERT_EQ(good[kFirstPayloadFlag], 1);
  ASSERT_TRUE(Trace::deserialize(good).ok());
  for (int v = 2; v < 256; ++v) {
    Bytes data = good;
    data[kFirstPayloadFlag] = static_cast<std::uint8_t>(v);
    reseal(data);
    EXPECT_EQ(Trace::deserialize(data).status().code(),
              StatusCode::kInvalidArgument)
        << v;
  }
}

// Every single-byte edit of a small trace, CRC resealed, is either
// rejected or decodes to a trace that serializes back to exactly the
// edited bytes: no two encodings share a decoded trace.
TEST(TraceTest, EveryAcceptedSingleByteEditReserializesToItself) {
  Trace t;
  t.add(record(1000, 1, 2, to_bytes("ab")));
  t.add(record(2000, 2, 1));
  const Bytes good = t.serialize();
  std::size_t accepted = 0;
  for (std::size_t pos = 0; pos + 4 < good.size(); ++pos) {
    for (int v = 0; v < 256; ++v) {
      if (v == good[pos]) continue;
      Bytes data = good;
      data[pos] = static_cast<std::uint8_t>(v);
      reseal(data);
      const auto back = Trace::deserialize(data);
      if (!back.ok()) continue;
      ++accepted;
      ASSERT_EQ(back.value().serialize(), data)
          << "byte " << pos << " set to " << v;
    }
  }
  // Times, node ids, ports, sizes and payload bytes take any value.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace lexfor::netsim
