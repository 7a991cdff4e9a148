// TapRegistry: per-suspect admission before any state exists,
// single-pass multi-suspect collection, and exact aggregate drop
// accounting under overload and mid-flight topology changes.

#include "stream/tap_registry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "legal/process.h"
#include "netsim/flow.h"
#include "stream/online_despread.h"
#include "util/rng.h"
#include "watermark/pn_code.h"

namespace lexfor::stream {
namespace {

using watermark::CorrelationKernel;
using watermark::PnCode;

legal::Scenario rate_collection_scenario() {
  return legal::Scenario{}
      .named("registry non-content rate collection")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kAddressing)
      .located(legal::DataState::kInTransit)
      .when(legal::Timing::kRealTime);
}

legal::GrantedAuthority court_order_authority() {
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30 * 24 * 3600.0);
  return legal::GrantedAuthority{order};
}

TapSessionConfig tap_config(NodeId target, SimDuration bin_width,
                            std::size_t capacity) {
  TapSessionConfig cfg;
  cfg.scenario = rate_collection_scenario();
  cfg.authority = court_order_authority();
  cfg.target = target;
  cfg.ring.start = SimTime::zero();
  cfg.ring.bin_width = bin_width;
  cfg.ring.capacity = capacity;
  return cfg;
}

netsim::Packet make_packet(NodeId src, NodeId dst) {
  netsim::Packet p;
  p.header.src = src;
  p.header.dst = dst;
  return p;
}

TEST(TapRegistryTest, RefusedAdmissionLeavesRegistryUntouched) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  TapRegistry registry;

  auto ok_cfg = tap_config(NodeId{1}, SimDuration::from_ms(100.0), 64);
  ASSERT_TRUE(registry.add_tap(kernel, ok_cfg).ok());

  // A content grab under the same court order must be refused with NO
  // state: no slot — the tap never existed.
  auto content_cfg = tap_config(NodeId{2}, SimDuration::from_ms(100.0), 64);
  content_cfg.scenario =
      content_cfg.scenario.acquiring(legal::DataKind::kContent);
  const auto refused = registry.add_tap(kernel, content_cfg);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.refused(), 1u);
}

TEST(TapRegistryTest, TapPointersStayStableAcrossGrowth) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  TapRegistry registry;
  std::vector<TapSession*> handles;
  for (std::uint32_t i = 0; i < 32; ++i) {
    auto tap = registry.add_tap(
        kernel, tap_config(NodeId{i + 1}, SimDuration::from_ms(100.0), 32));
    ASSERT_TRUE(tap.ok());
    handles.push_back(tap.value());
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i], &registry.tap(i));
  }
}

TEST(TapRegistryTest, DirectFeedMatchesStandaloneDespreader) {
  // feed_bin must drive exactly the despreader a standalone
  // OnlineDespreader over the same bins would be — bit for bit.
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  Rng rng{17};
  std::vector<double> bins(code.length() + 8);
  for (auto& b : bins) b = 100.0 + rng.normal(0.0, 10.0);

  TapRegistry registry;
  ASSERT_TRUE(
      registry
          .add_tap(kernel, tap_config(NodeId{1}, SimDuration::from_ms(100.0),
                                      code.length()))
          .ok());
  OnlineDespreader reference(kernel, /*max_offset=*/0);
  for (const double b : bins) {
    registry.feed_bin(0, b);
    (void)reference.push(b);
  }
  const auto& got = registry.tap(0).verdict().scan;
  const auto& want = reference.verdict().scan;
  EXPECT_EQ(got.offset, want.offset);
  EXPECT_EQ(got.best.detected, want.best.detected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.correlation),
            std::bit_cast<std::uint64_t>(want.best.correlation));
  EXPECT_EQ(registry.tap(0).stats().bins_scored, bins.size());
}

TEST(TapRegistryTest, BinMajorFeedMatchesEachTapFedAlone) {
  // The traceback feeds bin i to every tap before any tap sees bin
  // i+1.  Taps share no window, so each verdict must equal a
  // standalone despreader fed only that tap's bins — marked or not,
  // aligned or scanning offsets.
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  const std::vector<std::size_t> max_offsets{0, 3, 0, 7, 1};
  const std::size_t num_bins = code.length() + 8;
  Rng rng{23};
  std::vector<std::vector<double>> bins(max_offsets.size());
  for (std::size_t t = 0; t < bins.size(); ++t) {
    const bool marked = t % 2 == 0;
    for (std::size_t i = 0; i < num_bins; ++i) {
      const double chip = marked && i < code.length()
                              ? static_cast<double>(code.chips()[i])
                              : 0.0;
      bins[t].push_back(100.0 + 30.0 * chip + rng.normal(0.0, 10.0));
    }
  }

  TapRegistry registry;
  for (std::size_t t = 0; t < max_offsets.size(); ++t) {
    auto cfg = tap_config(NodeId{static_cast<std::uint32_t>(t + 1)},
                          SimDuration::from_ms(100.0), code.length());
    cfg.max_offset = max_offsets[t];
    ASSERT_TRUE(registry.add_tap(kernel, cfg).ok());
  }
  for (std::size_t i = 0; i < num_bins; ++i) {
    for (std::size_t t = 0; t < bins.size(); ++t) {
      registry.feed_bin(t, bins[t][i]);
    }
  }

  for (std::size_t t = 0; t < bins.size(); ++t) {
    OnlineDespreader reference(kernel, max_offsets[t]);
    for (const double b : bins[t]) (void)reference.push(b);
    const auto& got = registry.tap(t).verdict();
    const auto& want = reference.verdict();
    ASSERT_TRUE(got.complete) << "tap " << t;
    EXPECT_EQ(got.scan.offset, want.scan.offset) << "tap " << t;
    EXPECT_EQ(got.scan.best.detected, want.scan.best.detected) << "tap " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scan.best.correlation),
              std::bit_cast<std::uint64_t>(want.scan.best.correlation))
        << "tap " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scan.best.threshold),
              std::bit_cast<std::uint64_t>(want.scan.best.threshold))
        << "tap " << t;
    if (t % 2 == 0) {
      EXPECT_TRUE(got.scan.best.detected) << "tap " << t;
    }
  }
}

TEST(TapRegistryTest, AggregateAccountingExactUnderOverload) {
  // Tiny rings, never pumped: most events overflow.  The conservation
  // invariant recorded + drops == offered must hold exactly on the
  // aggregate across every tap.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  TapRegistry registry;
  constexpr std::size_t kTaps = 4;
  for (std::uint32_t i = 0; i < kTaps; ++i) {
    ASSERT_TRUE(registry
                    .add_tap(kernel, tap_config(NodeId{i + 1},
                                                SimDuration::from_ms(10.0), 2))
                    .ok());
  }

  // Offer every outcome class to every tap.  The tap pumps itself as
  // events arrive, so overload must come from a burst AHEAD of the
  // drain clock (bin 50 against a 2-bin ring), and lateness from an
  // event BEHIND a ring that burst pushed forward.
  std::uint64_t offered = 0;
  for (std::uint32_t t = 0; t < kTaps; ++t) {
    const NodeId target{t + 1};
    const NodeId other{100 + t};
    const auto pkt = make_packet(other, target);
    const auto offer = [&](double at_ms) {
      registry.tap(t).on_traversal(
          {pkt, LinkId{1}, other, target, SimTime::from_ms(at_ms)});
      ++offered;
    };
    offer(-5.0);  // early: before the tap's start
    offer(0.0);   // recorded into bin 0
    // Each burst event jumps >= 3 bins ahead of the base the previous
    // pump left, so every one lands beyond base + capacity: overflow.
    for (int i = 0; i < 10; ++i) offer(500.0 + 30.0 * static_cast<double>(i));
    offer(400.0);  // far behind the drained base by now: late
    offer(775.0);  // the open bin after the burst: recorded
  }

  const RateRingStats total = registry.aggregate_ring_stats();
  EXPECT_EQ(total.offered(), offered);
  EXPECT_EQ(total.recorded + total.early_drops + total.late_drops +
                total.overflow_drops,
            offered);
  EXPECT_EQ(total.early_drops, kTaps);
  EXPECT_EQ(total.late_drops, kTaps);
  EXPECT_EQ(total.overflow_drops, 10u * kTaps);
  EXPECT_EQ(total.recorded, 2u * kTaps);
}

TEST(TapRegistryTest, SinglePassMultiSuspectCollectionOverLiveNetwork) {
  // One simulation, three suspects tapped at once; every tap's
  // accounting closes and the aggregate equals the per-tap sum even
  // when a link is cut mid-observation.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  const SimDuration chip = SimDuration::from_ms(100.0);

  netsim::Network net(29);
  const auto server = net.add_node("server");
  const auto isp = net.add_node("isp");
  ASSERT_TRUE(net.connect(server, isp).ok());
  std::vector<NodeId> suspects;
  std::vector<LinkId> access;
  for (int i = 0; i < 3; ++i) {
    suspects.push_back(net.add_node("suspect" + std::to_string(i)));
    access.push_back(net.connect(isp, suspects.back()).value());
  }

  TapRegistry registry;
  for (const auto s : suspects) {
    ASSERT_TRUE(registry.add_tap(kernel, tap_config(s, chip, 64)).ok());
  }
  ASSERT_TRUE(registry.attach_all(net).ok());

  std::vector<std::unique_ptr<netsim::FlowSource>> flows;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    netsim::FlowConfig fc;
    fc.id = FlowId{static_cast<std::uint32_t>(i + 1)};
    fc.src = server;
    fc.dst = suspects[i];
    fc.packets_per_sec = 150.0;
    fc.stop = SimTime::from_sec(3.1);
    flows.push_back(std::make_unique<netsim::FlowSource>(
        net, fc, netsim::ArrivalProcess::kPoisson, 5 + i));
    flows.back()->start();
  }
  // Cut suspect 2's access mid-flight: drops are counted, never lost.
  net.clock().schedule_at(SimTime::from_sec(1.5),
                          [&net, &access] { (void)net.disconnect(access[2]); });
  net.run();
  registry.pump_all(net.now() + chip);

  std::uint64_t packets_sum = 0, offered_sum = 0;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& tap = registry.tap(i);
    EXPECT_EQ(tap.stats().packets_seen, tap.ring().stats().offered())
        << "tap " << i;
    packets_sum += tap.stats().packets_seen;
    offered_sum += tap.ring().stats().offered();
  }
  const RateRingStats total = registry.aggregate_ring_stats();
  EXPECT_EQ(total.offered(), offered_sum);
  EXPECT_EQ(packets_sum, offered_sum);
  EXPECT_GT(total.recorded, 0u);
  EXPECT_EQ(net.packets_sent(),
            net.packets_delivered() + net.packets_dropped());
  EXPECT_GT(net.packets_dropped(), 0u);  // the cut really happened
}

}  // namespace
}  // namespace lexfor::stream
