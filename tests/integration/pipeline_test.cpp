// Cross-module integration: the full acquisition pipeline.
//
//   network traffic -> authority-scoped capture -> serialized trace ->
//   evidence locker (hashed, custody-chained) -> investigation record ->
//   admissibility audit.
//
// Two runs: one lawful (court order held for a pen/trap), one unlawful
// (full content captured under... nothing), verifying the evidence flows
// through identically but the audit separates them.

#include <gtest/gtest.h>

#include "capture/capture.h"
#include "evidence/locker.h"
#include "investigation/investigation.h"
#include "netsim/flow.h"
#include "netsim/trace.h"

namespace lexfor {
namespace {

using capture::CaptureDevice;
using capture::CaptureMode;

legal::GrantedAuthority make_authority(legal::ProcessKind kind) {
  legal::LegalProcess p;
  p.id = ProcessId{1};
  p.kind = kind;
  p.issued_at = SimTime::zero();
  return legal::GrantedAuthority{p};
}

// Drives traffic from a campus host to the internet past an ISP tap:
// internet -- isp -- campus gateway -- host.
netsim::Trace capture_trace(CaptureMode mode, legal::ProcessKind held) {
  netsim::Network net{31337};
  const NodeId internet = net.add_node("internet");
  const NodeId isp = net.add_node("isp");
  const NodeId gateway = net.add_node("campus-gateway");
  const NodeId host = net.add_node("host-0");
  EXPECT_TRUE(net.connect(internet, isp).ok());
  EXPECT_TRUE(net.connect(isp, gateway).ok());
  EXPECT_TRUE(net.connect(gateway, host).ok());

  auto device = CaptureDevice::create(mode, make_authority(held),
                                      capture::minimum_process(mode), isp,
                                      "isp", SimTime::zero())
                    .value();
  EXPECT_TRUE(device.attach(net).ok());

  netsim::FlowConfig flow;
  flow.id = FlowId{1};
  flow.src = host;
  flow.dst = internet;
  flow.packets_per_sec = 200.0;
  flow.stop = SimTime::from_sec(2.0);
  netsim::FlowSource source(net, flow, netsim::ArrivalProcess::kPoisson, 3);
  source.start();
  net.run();
  return capture::to_trace(device);
}

TEST(PipelineTest, PenTrapTraceCarriesNoPayloadEndToEnd) {
  const auto trace =
      capture_trace(CaptureMode::kPenTrap, legal::ProcessKind::kCourtOrder);
  ASSERT_GT(trace.size(), 100u);
  EXPECT_EQ(trace.payload_bytes(), 0u);

  // Serialize, store as evidence, re-read: still no payload.
  const Bytes wire = trace.serialize();
  evidence::EvidenceLocker locker(to_bytes("case-key"));
  const auto id = locker.deposit("pen/trap trace", wire, "Agent P",
                                 SimTime::from_sec(10));
  ASSERT_TRUE(locker.all_verify());

  const auto reread =
      netsim::Trace::deserialize(locker.find(id)->content()).value();
  EXPECT_EQ(reread.size(), trace.size());
  EXPECT_EQ(reread.payload_bytes(), 0u);
}

TEST(PipelineTest, FullContentTraceRoundTripsThroughEvidence) {
  const auto trace = capture_trace(CaptureMode::kFullContent,
                                   legal::ProcessKind::kWiretapOrder);
  ASSERT_GT(trace.size(), 100u);
  EXPECT_GT(trace.payload_bytes(), 0u);

  evidence::EvidenceLocker locker(to_bytes("case-key"));
  const auto id = locker.deposit("Title III capture", trace.serialize(),
                                 "Agent Q", SimTime::from_sec(10));
  const auto copy = locker.image(id, "Analyst R", SimTime::from_sec(20)).value();
  ASSERT_TRUE(locker.all_verify());

  const auto reread =
      netsim::Trace::deserialize(locker.find(copy)->content()).value();
  EXPECT_EQ(reread.payload_bytes(), trace.payload_bytes());
}

TEST(PipelineTest, TamperedEvidenceFailsBeforeItReachesCourt) {
  const auto trace =
      capture_trace(CaptureMode::kPenTrap, legal::ProcessKind::kCourtOrder);
  evidence::EvidenceLocker locker(to_bytes("case-key"));
  const auto id = locker.deposit("trace", trace.serialize(), "Agent P",
                                 SimTime::zero());
  locker.mutable_item_for_test(id)->tamper_with_content_for_test(20, 0xFF);

  // Both integrity layers catch it: the custody hash and the trace CRC.
  EXPECT_FALSE(locker.all_verify());
  EXPECT_FALSE(netsim::Trace::deserialize(locker.find(id)->content()).ok());
}

TEST(PipelineTest, AuditSeparatesLawfulFromUnlawfulCollections) {
  investigation::Court court;
  investigation::Investigation inv(CaseId{9}, "pipeline case",
                                   legal::CrimeCategory::kIntrusion, court);

  // Lawful: pen/trap collection under a court order.
  inv.add_fact({legal::FactKind::kWitnessStatement, 1.0, "victim report"});
  inv.add_fact({legal::FactKind::kIpAddressLinked, 1.0, "attack source IP"});
  const auto order =
      inv.apply_for(legal::ProcessKind::kCourtOrder, {}, SimTime::zero())
          .value();
  const auto lawful = inv.acquire(
      legal::Scenario{}
          .named("pen/trap at ISP")
          .acquiring(legal::DataKind::kAddressing)
          .located(legal::DataState::kInTransit)
          .when(legal::Timing::kRealTime),
      "header trace", inv.authority(order));

  // Unlawful: full content with no order at all.
  const auto unlawful = inv.acquire(
      legal::Scenario{}
          .named("full capture, no process")
          .acquiring(legal::DataKind::kContent)
          .located(legal::DataState::kInTransit)
          .when(legal::Timing::kRealTime),
      "payload trace", legal::GrantedAuthority{});

  const auto audit = inv.admissibility_audit();
  EXPECT_FALSE(audit.is_suppressed(lawful.evidence));
  EXPECT_TRUE(audit.is_suppressed(unlawful.evidence));
}

}  // namespace
}  // namespace lexfor
