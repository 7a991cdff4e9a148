#include "capture/capture.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "netsim/flow.h"
#include "obs/metrics.h"

namespace lexfor::capture {
namespace {

using legal::DataKind;
using legal::GrantedAuthority;
using legal::LegalProcess;
using legal::ProcessKind;

LegalProcess make_process(ProcessKind kind) {
  LegalProcess p;
  p.id = ProcessId{1};
  p.kind = kind;
  p.issued_at = SimTime::zero();
  return p;
}

netsim::TapEvent make_event(const netsim::Packet& p, NodeId from, NodeId to) {
  return netsim::TapEvent{p, LinkId{0}, from, to, SimTime::from_ms(1)};
}

netsim::Packet make_packet(NodeId src, NodeId dst, std::size_t payload) {
  netsim::Packet p;
  p.id = PacketId{1};
  p.flow = FlowId{1};
  p.header.src = src;
  p.header.dst = dst;
  p.header.payload_size = static_cast<std::uint32_t>(payload);
  p.payload = Bytes(payload, 0x55);
  return p;
}

TEST(CaptureGateTest, PenTrapNeedsCourtOrder) {
  const GrantedAuthority none;
  const auto r = CaptureDevice::create(CaptureMode::kPenTrap, none,
                                       ProcessKind::kCourtOrder, NodeId{1},
                                       "isp", SimTime::zero());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);

  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  EXPECT_TRUE(CaptureDevice::create(CaptureMode::kPenTrap, order,
                                    ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                    SimTime::zero())
                  .ok());
}

TEST(CaptureGateTest, FullContentNeedsWiretapOrderEvenIfEngineSaysLess) {
  // Even if a caller (wrongly) claims only a court order is required, the
  // statutory floor for a full-content device is the Title III order.
  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  const auto r = CaptureDevice::create(CaptureMode::kFullContent, order,
                                       ProcessKind::kCourtOrder, NodeId{1},
                                       "isp", SimTime::zero());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);

  const GrantedAuthority wiretap{make_process(ProcessKind::kWiretapOrder)};
  EXPECT_TRUE(CaptureDevice::create(CaptureMode::kFullContent, wiretap,
                                    ProcessKind::kWiretapOrder, NodeId{1},
                                    "isp", SimTime::zero())
                  .ok());
}

TEST(CaptureGateTest, ProcessFreeAcquisitionNeedsNoAuthority) {
  // When an exception applies (engine returns kNone), even a pen/trap
  // style device may run without process — e.g. victim-consent monitoring.
  const GrantedAuthority none;
  EXPECT_TRUE(CaptureDevice::create(CaptureMode::kPenTrap, none,
                                    ProcessKind::kNone, NodeId{1}, "victim-box",
                                    SimTime::zero())
                  .ok());
}

TEST(CaptureGateTest, ExpiredProcessIsRefused) {
  auto p = make_process(ProcessKind::kWiretapOrder);
  p.validity = SimDuration::from_sec(10.0);
  const GrantedAuthority expired{p};
  const auto r = CaptureDevice::create(CaptureMode::kFullContent, expired,
                                       ProcessKind::kWiretapOrder, NodeId{1},
                                       "isp", SimTime::from_sec(100.0));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CaptureMinimizationTest, PenTrapNeverRetainsPayload) {
  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kPenTrap, order,
                                   ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                   SimTime::zero())
                 .value();
  const auto packet = make_packet(NodeId{1}, NodeId{2}, 300);
  dev.on_traversal(make_event(packet, NodeId{1}, NodeId{2}));

  ASSERT_EQ(dev.records().size(), 1u);
  EXPECT_FALSE(dev.records()[0].payload.has_value());
  EXPECT_EQ(dev.records()[0].header.payload_size, 300u);  // size retained
  EXPECT_EQ(dev.stats().payload_bytes_discarded, 300u);
  EXPECT_EQ(dev.stats().payload_bytes_retained, 0u);
}

TEST(CaptureMinimizationTest, FullContentRetainsPayload) {
  const GrantedAuthority wiretap{make_process(ProcessKind::kWiretapOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kFullContent, wiretap,
                                   ProcessKind::kWiretapOrder, NodeId{1},
                                   "isp", SimTime::zero())
                 .value();
  const auto packet = make_packet(NodeId{1}, NodeId{2}, 128);
  dev.on_traversal(make_event(packet, NodeId{1}, NodeId{2}));
  ASSERT_EQ(dev.records().size(), 1u);
  ASSERT_TRUE(dev.records()[0].payload.has_value());
  EXPECT_EQ(dev.records()[0].payload->size(), 128u);
  EXPECT_EQ(dev.stats().payload_bytes_retained, 128u);
}

TEST(CaptureDirectionTest, PenRegisterRecordsOutgoingOnly) {
  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kPenRegister, order,
                                   ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                   SimTime::zero())
                 .value();
  const auto out = make_packet(NodeId{1}, NodeId{2}, 10);
  const auto in = make_packet(NodeId{2}, NodeId{1}, 10);
  dev.on_traversal(make_event(out, NodeId{1}, NodeId{2}));  // outgoing
  dev.on_traversal(make_event(in, NodeId{2}, NodeId{1}));   // incoming
  EXPECT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.records()[0].from, NodeId{1});
}

TEST(CaptureDirectionTest, TrapAndTraceRecordsIncomingOnly) {
  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kTrapAndTrace, order,
                                   ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                   SimTime::zero())
                 .value();
  const auto out = make_packet(NodeId{1}, NodeId{2}, 10);
  const auto in = make_packet(NodeId{2}, NodeId{1}, 10);
  dev.on_traversal(make_event(out, NodeId{1}, NodeId{2}));
  dev.on_traversal(make_event(in, NodeId{2}, NodeId{1}));
  EXPECT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.records()[0].to, NodeId{1});
}

TEST(CaptureIntegrationTest, DeviceOnNetworkCapturesTraffic) {
  netsim::Network net{11};
  const NodeId client = net.add_node("client");
  const NodeId isp = net.add_node("isp");
  const NodeId server = net.add_node("server");
  (void)net.connect(client, isp).value();
  (void)net.connect(isp, server).value();

  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kPenTrap, order,
                                   ProcessKind::kCourtOrder, isp, "isp",
                                   SimTime::zero())
                 .value();
  ASSERT_TRUE(dev.attach(net).ok());

  netsim::PacketHeader h;
  h.src = client;
  h.dst = server;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.send(FlowId{1}, h, Bytes(64, 0)).ok());
  }
  net.run();
  // Each packet traverses two links incident to the ISP: both match.
  EXPECT_EQ(dev.records().size(), 20u);
  EXPECT_EQ(dev.stats().payload_bytes_retained, 0u);
}

TEST(CaptureTest, MinimumProcessMapping) {
  EXPECT_EQ(minimum_process(CaptureMode::kPenRegister), ProcessKind::kCourtOrder);
  EXPECT_EQ(minimum_process(CaptureMode::kTrapAndTrace), ProcessKind::kCourtOrder);
  EXPECT_EQ(minimum_process(CaptureMode::kPenTrap), ProcessKind::kCourtOrder);
  EXPECT_EQ(minimum_process(CaptureMode::kFullContent), ProcessKind::kWiretapOrder);
}

}  // namespace
}  // namespace lexfor::capture

// --- process-expiry auto-stop ------------------------------------------

namespace lexfor::capture {
namespace {

TEST(CaptureExpiryTest, RetentionStopsWhenTheProcessLapses) {
  auto p = make_process(ProcessKind::kCourtOrder);
  p.validity = SimDuration::from_sec(100.0);
  const GrantedAuthority order{p};
  auto dev = CaptureDevice::create(CaptureMode::kPenTrap, order,
                                   ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                   SimTime::zero())
                 .value();
  ASSERT_TRUE(dev.expires_at().has_value());
  EXPECT_EQ(*dev.expires_at(), SimTime::from_sec(100.0));

  const auto packet = make_packet(NodeId{1}, NodeId{2}, 10);
  netsim::TapEvent before{packet, LinkId{0}, NodeId{1}, NodeId{2},
                          SimTime::from_sec(50)};
  netsim::TapEvent after{packet, LinkId{0}, NodeId{1}, NodeId{2},
                         SimTime::from_sec(150)};
  dev.on_traversal(before);
  dev.on_traversal(after);

  EXPECT_EQ(dev.records().size(), 1u);
  EXPECT_EQ(dev.stats().packets_after_expiry, 1u);
}

TEST(CaptureExpiryTest, ProcessFreeDevicesNeverExpire) {
  auto dev = CaptureDevice::create(CaptureMode::kPenTrap, GrantedAuthority{},
                                   ProcessKind::kNone, NodeId{1}, "victim",
                                   SimTime::zero())
                 .value();
  EXPECT_FALSE(dev.expires_at().has_value());
  const auto packet = make_packet(NodeId{1}, NodeId{2}, 10);
  netsim::TapEvent late{packet, LinkId{0}, NodeId{1}, NodeId{2},
                        SimTime::from_sec(1e7)};
  dev.on_traversal(late);
  EXPECT_EQ(dev.records().size(), 1u);
}

}  // namespace
}  // namespace lexfor::capture

// --- capture -> trace handoff ----------------------------------------------

namespace lexfor::capture {
namespace {

TEST(ToTraceTest, TraceMirrorsRetainedRecords) {
  const GrantedAuthority wiretap{make_process(ProcessKind::kWiretapOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kFullContent, wiretap,
                                   ProcessKind::kWiretapOrder, NodeId{1},
                                   "isp", SimTime::zero())
                 .value();
  for (int i = 0; i < 5; ++i) {
    const auto packet = make_packet(NodeId{1}, NodeId{2}, 32);
    dev.on_traversal(make_event(packet, NodeId{1}, NodeId{2}));
  }
  const auto trace = to_trace(dev);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace.payload_bytes(), 5u * 32u);
  // And it survives the wire format.
  const auto reread = netsim::Trace::deserialize(trace.serialize());
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().size(), 5u);
}

TEST(ToTraceTest, PenTrapTraceHasNoPayload) {
  const GrantedAuthority order{make_process(ProcessKind::kCourtOrder)};
  auto dev = CaptureDevice::create(CaptureMode::kPenTrap, order,
                                   ProcessKind::kCourtOrder, NodeId{1}, "isp",
                                   SimTime::zero())
                 .value();
  const auto packet = make_packet(NodeId{1}, NodeId{2}, 64);
  dev.on_traversal(make_event(packet, NodeId{1}, NodeId{2}));
  const auto trace = to_trace(dev);
  EXPECT_EQ(trace.payload_bytes(), 0u);
}

// Capture scope for every mode under every held instrument: the device
// exists exactly when the held process satisfies the mode's statutory
// floor, and then it retains only what the mode may.  A two-way flow
// passes the tap at the suspect's node: addressing without payload
// unless the device is a full-content intercept, outgoing traffic only
// for a pen register, incoming only for a trap and trace.  A refused
// device records nothing.
class CaptureScopeTest
    : public ::testing::TestWithParam<std::tuple<CaptureMode, ProcessKind>> {};

TEST_P(CaptureScopeTest, RetainsOnlyWhatTheModeAndTheHeldProcessAllow) {
  const auto [mode, held] = GetParam();
  const GrantedAuthority authority = held == ProcessKind::kNone
                                         ? GrantedAuthority{}
                                         : GrantedAuthority{make_process(held)};
  netsim::Network net{2012};
  const NodeId suspect = net.add_node("suspect");
  const NodeId isp = net.add_node("isp");
  const NodeId server = net.add_node("server");
  ASSERT_TRUE(net.connect(suspect, isp).ok());
  ASSERT_TRUE(net.connect(isp, server).ok());

  const obs::Counter& observed =
      obs::metrics().counter("capture.packets_observed");
  const obs::Counter& retained =
      obs::metrics().counter("capture.packets_retained");
  const std::uint64_t observed_before = observed.value();
  const std::uint64_t retained_before = retained.value();

  auto device = CaptureDevice::create(mode, authority, minimum_process(mode),
                                      suspect, "isp", SimTime::zero());
  ASSERT_EQ(device.ok(), legal::satisfies(held, minimum_process(mode)))
      << device.status();
  if (device.ok()) {
    ASSERT_TRUE(device.value().attach(net).ok());
  } else {
    EXPECT_EQ(device.status().code(), StatusCode::kPermissionDenied);
  }

  netsim::FlowConfig up;
  up.id = FlowId{1};
  up.src = suspect;
  up.dst = server;
  up.packet_bytes = 96;
  up.packets_per_sec = 40.0;
  up.stop = SimTime::from_sec(3.0);
  netsim::FlowConfig down = up;
  down.id = FlowId{2};
  down.src = server;
  down.dst = suspect;
  down.src_port = up.dst_port;
  down.dst_port = up.src_port;
  netsim::FlowSource up_source(net, up, netsim::ArrivalProcess::kPoisson, 21);
  netsim::FlowSource down_source(net, down, netsim::ArrivalProcess::kPoisson,
                                 22);
  up_source.start();
  down_source.start();
  net.run();
  ASSERT_GT(up_source.emitted(), 0u);
  ASSERT_GT(down_source.emitted(), 0u);

  if (!device.ok()) {
    EXPECT_EQ(observed.value(), observed_before);
    EXPECT_EQ(retained.value(), retained_before);
    return;
  }
  const CaptureDevice& dev = device.value();
  const CaptureStats& stats = dev.stats();
  EXPECT_EQ(stats.packets_observed,
            up_source.emitted() + down_source.emitted());
  EXPECT_LE(stats.packets_retained, stats.packets_observed);
  EXPECT_EQ(stats.packets_retained, dev.records().size());
  std::uint64_t outgoing = 0;
  std::uint64_t payload_bytes = 0;
  for (const CapturedRecord& rec : dev.records()) {
    const bool out = rec.from == suspect;
    EXPECT_TRUE(out ? rec.header.src == suspect : rec.header.dst == suspect);
    EXPECT_TRUE(out || rec.to == suspect);
    if (mode == CaptureMode::kPenRegister) {
      EXPECT_TRUE(out);
    }
    if (mode == CaptureMode::kTrapAndTrace) {
      EXPECT_FALSE(out);
    }
    EXPECT_EQ(rec.payload.has_value(), mode == CaptureMode::kFullContent);
    if (rec.payload.has_value()) payload_bytes += rec.payload->size();
    outgoing += out;
  }
  switch (mode) {
    case CaptureMode::kPenRegister:
      EXPECT_EQ(stats.packets_retained, up_source.emitted());
      break;
    case CaptureMode::kTrapAndTrace:
      EXPECT_EQ(stats.packets_retained, down_source.emitted());
      break;
    case CaptureMode::kPenTrap:
    case CaptureMode::kFullContent:
      EXPECT_EQ(outgoing, up_source.emitted());
      EXPECT_EQ(stats.packets_retained,
                up_source.emitted() + down_source.emitted());
      break;
  }
  EXPECT_EQ(stats.payload_bytes_retained, payload_bytes);
  EXPECT_EQ(payload_bytes == 0, mode != CaptureMode::kFullContent);
#if LEXFOR_OBS
  EXPECT_EQ(observed.value() - observed_before, stats.packets_observed);
  EXPECT_EQ(retained.value() - retained_before, stats.packets_retained);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    EveryModeAndHeldProcess, CaptureScopeTest,
    ::testing::Combine(
        ::testing::Values(CaptureMode::kPenRegister, CaptureMode::kTrapAndTrace,
                          CaptureMode::kPenTrap, CaptureMode::kFullContent),
        ::testing::Values(ProcessKind::kNone, ProcessKind::kSubpoena,
                          ProcessKind::kCourtOrder, ProcessKind::kSearchWarrant,
                          ProcessKind::kWiretapOrder)));

}  // namespace
}  // namespace lexfor::capture
