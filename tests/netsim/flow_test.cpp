#include "netsim/flow.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace lexfor::netsim {
namespace {

struct FlowFixture {
  Network net{5};
  NodeId src = net.add_node("src");
  NodeId dst = net.add_node("dst");
  FlowFixture() {
    LinkConfig cfg;
    cfg.latency = SimDuration::from_ms(1);
    (void)net.connect(src, dst, cfg).value();
  }
  FlowConfig config(double rate, double stop_sec) {
    FlowConfig c;
    c.id = FlowId{1};
    c.src = src;
    c.dst = dst;
    c.packets_per_sec = rate;
    c.stop = SimTime::from_sec(stop_sec);
    return c;
  }
};

TEST(FlowTest, ConstantRateEmitsExpectedCount) {
  FlowFixture f;
  FlowSource flow(f.net, f.config(100.0, 2.0), ArrivalProcess::kConstant, 1);
  flow.start();
  f.net.run();
  // 100 pps for 2 seconds: ~200 packets (first at t=0).
  EXPECT_NEAR(static_cast<double>(flow.emitted()), 200.0, 2.0);
}

TEST(FlowTest, PoissonRateApproximatesExpectedCount) {
  FlowFixture f;
  FlowSource flow(f.net, f.config(200.0, 5.0), ArrivalProcess::kPoisson, 2);
  flow.start();
  f.net.run();
  // 200 pps over 5 s: ~1000 expected, sd ~ sqrt(1000) ~ 32.
  EXPECT_NEAR(static_cast<double>(flow.emitted()), 1000.0, 150.0);
}

TEST(FlowTest, RateMultiplierScalesEmission) {
  FlowFixture f;
  FlowSource slow(f.net, f.config(100.0, 2.0), ArrivalProcess::kConstant, 3,
                  [](SimTime) { return 0.5; });
  slow.start();
  f.net.run();
  EXPECT_NEAR(static_cast<double>(slow.emitted()), 100.0, 3.0);
}

TEST(FlowTest, StopTimeIsRespected) {
  FlowFixture f;
  FlowSource flow(f.net, f.config(1000.0, 0.5), ArrivalProcess::kConstant, 4);
  flow.start();
  f.net.run();
  EXPECT_LE(f.net.now().seconds(), 0.6);
  EXPECT_NEAR(static_cast<double>(flow.emitted()), 500.0, 3.0);
}

TEST(FlowTest, RejectedSendsCountAsErrorsNotEmissions) {
  // Pre-ISSUE-8, FlowSource::emit incremented emitted_ even when
  // Network::send refused the packet, so a flow on a partitioned
  // topology reported phantom traffic.
  Network net{5};
  const NodeId src = net.add_node("src");
  const NodeId island = net.add_node("island");  // no links at all
  FlowConfig c;
  c.id = FlowId{1};
  c.src = src;
  c.dst = island;
  c.packets_per_sec = 100.0;
  c.stop = SimTime::from_sec(1.0);
  FlowSource flow(net, c, ArrivalProcess::kConstant, 1);
  flow.start();
  net.run();
  EXPECT_EQ(flow.emitted(), 0u);
  EXPECT_EQ(flow.errors(), 100u);
  EXPECT_EQ(net.packets_sent(), 0u);
}

TEST(FlowTest, EmittedMatchesNetworkAcceptedSends) {
  FlowFixture f;
  FlowSource flow(f.net, f.config(200.0, 1.0), ArrivalProcess::kPoisson, 9);
  flow.start();
  f.net.run();
  EXPECT_EQ(flow.emitted(), f.net.packets_sent());
  EXPECT_EQ(flow.errors(), 0u);
}

TEST(FlowTest, PoissonDeliveryTimesMatchTheGoldenDigest) {
  // Delivery times (us) of Poisson flows at three rates over 20 seeds,
  // folded with FNV-1a: each is an emission time, whose gaps are
  // Rng::exponential draws through the owned util::log, plus the link's
  // fixed latency.  Every host and build must give the golden value,
  // which was computed from this build.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t delivered = 0;
  for (const double rate : {50.0, 200.0, 1000.0}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      FlowFixture f;
      std::vector<SimTime> times;
      ASSERT_TRUE(f.net
                      .set_receive_handler(
                          f.dst, [&times](const Packet&, SimTime at) {
                            times.push_back(at);
                          })
                      .ok());
      FlowSource flow(f.net, f.config(rate, 5.0), ArrivalProcess::kPoisson,
                      seed);
      flow.start();
      f.net.run();
      add(times.size());
      for (const SimTime t : times) add(static_cast<std::uint64_t>(t.us));
      delivered += times.size();
    }
  }
  EXPECT_GT(delivered, 100'000u);
  EXPECT_EQ(h, 0xf2d8e971103b3166ULL);
}

TEST(RateRecorderTest, BinsObservationsByWindow) {
  RateRecorder rec(SimDuration::from_ms(100));
  rec.observe(SimTime::from_ms(10));
  rec.observe(SimTime::from_ms(50));
  rec.observe(SimTime::from_ms(150));
  rec.observe(SimTime::from_ms(250));
  ASSERT_EQ(rec.bins().size(), 3u);
  EXPECT_EQ(rec.bins()[0], 2u);
  EXPECT_EQ(rec.bins()[1], 1u);
  EXPECT_EQ(rec.bins()[2], 1u);
}

TEST(RateRecorderTest, RatesNormalizeByBinWidth) {
  RateRecorder rec(SimDuration::from_ms(500));
  for (int i = 0; i < 10; ++i) rec.observe(SimTime::from_ms(i * 40));
  const auto rates = rec.rates();
  ASSERT_FALSE(rates.empty());
  // 10 packets in the first 500 ms bin: 20 packets/sec.
  EXPECT_NEAR(rates[0], 20.0, 1e-9);
}

TEST(RateRecorderTest, ZeroBinWidthClampsToClockResolution) {
  // Division by a zero-width bin was possible pre-ISSUE-8; the width is
  // now clamped to the 1us clock resolution.
  RateRecorder rec{SimDuration::from_us(0)};
  EXPECT_EQ(rec.bin_width(), SimDuration::from_us(1));
  rec.observe(SimTime::from_us(3));
  ASSERT_EQ(rec.bins().size(), 4u);
  EXPECT_EQ(rec.bins()[3], 1u);
}

TEST(RateRecorderTest, NegativeBinWidthClampsToClockResolution) {
  RateRecorder rec{SimDuration::from_us(-5)};
  EXPECT_EQ(rec.bin_width(), SimDuration::from_us(1));
}

TEST(RateRecorderTest, NegativeTimestampsAreRejectedNotResized) {
  // A negative timestamp used to cast to a huge size_t bin index and
  // drive an unbounded vector resize.
  RateRecorder rec{SimDuration::from_ms(1)};
  rec.observe(SimTime::from_us(-1));
  rec.observe(SimTime::from_sec(-100.0));
  EXPECT_TRUE(rec.bins().empty());
  EXPECT_EQ(rec.rejected(), 2u);
  rec.observe(SimTime::from_us(500));
  ASSERT_EQ(rec.bins().size(), 1u);
  EXPECT_EQ(rec.bins()[0], 1u);
  EXPECT_EQ(rec.rejected(), 2u);
}

TEST(FlowIntegrationTest, RecorderAtTapMatchesEmittedRate) {
  FlowFixture f;
  RateRecorder rec(SimDuration::from_ms(200));
  ASSERT_TRUE(f.net
                  .add_node_tap(f.dst, [&](const TapEvent& ev) {
                    if (ev.to == f.dst) rec.observe(ev.at);
                  })
                  .ok());
  FlowSource flow(f.net, f.config(50.0, 4.0), ArrivalProcess::kConstant, 6);
  flow.start();
  f.net.run();
  const auto rates = rec.rates();
  ASSERT_GE(rates.size(), 10u);
  // Interior bins should all be close to 50 pps.
  for (std::size_t i = 1; i + 1 < rates.size(); ++i) {
    EXPECT_NEAR(rates[i], 50.0, 10.0) << "bin " << i;
  }
}

}  // namespace
}  // namespace lexfor::netsim
