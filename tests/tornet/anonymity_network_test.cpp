#include "tornet/anonymity_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

namespace lexfor::tornet {
namespace {

TEST(CircuitTest, BuildsDistinctRelays) {
  TorConfig cfg;
  cfg.num_relays = 10;
  cfg.circuit_length = 3;
  AnonymityNetwork net(cfg);
  Rng rng{1};
  const auto c = net.build_circuit(rng).value();
  EXPECT_EQ(c.relays.size(), 3u);
  const std::set<std::size_t> unique(c.relays.begin(), c.relays.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const auto r : c.relays) EXPECT_LT(r, 10u);
}

TEST(CircuitTest, RejectsCircuitLongerThanRelayPool) {
  TorConfig cfg;
  cfg.num_relays = 2;
  cfg.circuit_length = 3;
  AnonymityNetwork net(cfg);
  Rng rng{1};
  EXPECT_EQ(net.build_circuit(rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CircuitTest, CircuitIdsAreUnique) {
  AnonymityNetwork net(TorConfig{});
  Rng rng{2};
  const auto a = net.build_circuit(rng).value();
  const auto b = net.build_circuit(rng).value();
  EXPECT_NE(a.id, b.id);
}

TEST(CircuitTest, ExpectedShiftIsHopsTimesTheMeanHopDelay) {
  // Per hop: propagation, plus the mean of the exponential jitter, plus
  // half the uniform batching quantum.
  EXPECT_DOUBLE_EQ(expected_circuit_shift_sec(TorConfig{}),
                   3 * (25.0 + 30.0 + 10.0 / 2) * 1e-3);
  TorConfig one_hop;
  one_hop.circuit_length = 1;
  one_hop.relay_jitter_ms = 0.0;
  one_hop.relay_batch_ms = 0.0;
  one_hop.hop_latency_ms = 40.0;
  EXPECT_DOUBLE_EQ(expected_circuit_shift_sec(one_hop), 0.04);
}

TEST(TransitTest, DelaysAreAtLeastBaseLatency) {
  TorConfig cfg;
  cfg.circuit_length = 3;
  cfg.hop_latency_ms = 25.0;
  AnonymityNetwork net(cfg);
  Rng rng{3};
  const auto c = net.build_circuit(rng).value();
  const std::vector<double> sends{0.0, 0.5, 1.0};
  const auto arrivals = net.transit(c, sends, rng);
  ASSERT_EQ(arrivals.size(), 3u);
  // Minimum added delay: 3 hops x 25 ms.
  EXPECT_GE(arrivals[0], 0.075);
}

// Arrival i is send i plus its packet's delay, the delays drawn in send
// order: a copy of the Rng replays them bit for bit.  The checksum of the
// sorted arrivals was pinned from the one-at-a-time packet_delay_ms loop,
// whose exponentials take the owned util::log, so it holds on every host.
TEST(TransitTest, ArrivalIIsSendIPlusItsDelay) {
  AnonymityNetwork net(TorConfig{});
  Rng rng{4};
  const auto c = net.build_circuit(rng).value();
  std::vector<double> sends;
  for (int i = 0; i < 1000; ++i) sends.push_back(i * 0.002);
  Rng replay = rng;
  std::vector<double> arrivals = net.transit(c, sends, rng);
  ASSERT_EQ(arrivals.size(), sends.size());
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const double expected = sends[i] + net.packet_delay_ms(c, replay) * 1e-3;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(arrivals[i]),
              std::bit_cast<std::uint64_t>(expected))
        << i;
  }
  EXPECT_EQ(rng(), replay());

  std::sort(arrivals.begin(), arrivals.end());
  std::uint64_t checksum = 14695981039346656037ull;  // FNV-1a, per word
  for (const double a : arrivals) {
    checksum ^= std::bit_cast<std::uint64_t>(a);
    checksum *= 1099511628211ull;
  }
  EXPECT_EQ(checksum, 0xfb162ad7a9905cc8ull);
}

TEST(TransitTest, RateEnvelopeSurvivesTheCircuit) {
  // The property §IV.B depends on: coarse rate structure persists through
  // relay jitter.  Send a burst then silence; the far side must show the
  // same epoch structure.
  AnonymityNetwork net(TorConfig{});
  Rng rng{5};
  const auto c = net.build_circuit(rng).value();
  std::vector<double> sends;
  for (int i = 0; i < 500; ++i) sends.push_back(i * 0.002);       // 0-1s busy
  for (int i = 0; i < 50; ++i) sends.push_back(2.0 + i * 0.02);   // 2-3s sparse
  const auto arrivals = net.transit(c, sends, rng);
  const auto bins = bin_arrivals(arrivals, 0.0, 0.5, 8);
  // Bins covering the busy second greatly exceed the sparse second.
  const auto busy = bins[0] + bins[1] + bins[2];
  const auto sparse = bins[4] + bins[5] + bins[6] + bins[7];
  EXPECT_GT(busy, sparse * 3);
}

TEST(PoissonTest, HomogeneousRateMatches) {
  Rng rng{6};
  const auto times = generate_modulated_poisson(200.0, 10.0, 1.0, nullptr, rng);
  EXPECT_NEAR(static_cast<double>(times.size()), 2000.0, 200.0);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  for (const double t : times) {
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 10.0);
  }
}

TEST(PoissonTest, ModulationShapesTheRate) {
  Rng rng{7};
  // Rate doubles in the second half.
  const auto mult = [](double t) { return t < 5.0 ? 0.5 : 1.0; };
  const auto times = generate_modulated_poisson(200.0, 10.0, 1.0, mult, rng);
  std::size_t first_half = 0;
  for (const double t : times) first_half += t < 5.0;
  const std::size_t second_half = times.size() - first_half;
  EXPECT_NEAR(static_cast<double>(second_half) /
                  static_cast<double>(first_half),
              2.0, 0.4);
}

TEST(PoissonTest, DegenerateInputsYieldEmpty) {
  // A rate or t_end <= 0 draws nothing, and so does a non-finite peak
  // rate (a NaN rate, or a NaN max_multiplier, which std::max passes
  // through) or t_end: a NaN never reaches t_end, and an infinite t_end
  // would grow the sends without bound.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double base_rate;
    double t_end_sec;
    double max_multiplier;
  };
  for (const Case& c : {Case{0.0, 10.0, 1.0}, Case{10.0, 0.0, 1.0},
                        Case{nan, 10.0, 1.0}, Case{inf, 10.0, 1.0},
                        Case{10.0, nan, 1.0}, Case{10.0, inf, 1.0},
                        Case{10.0, 10.0, nan}, Case{10.0, 10.0, inf}}) {
    SCOPED_TRACE(testing::Message() << "rate " << c.base_rate << " t_end "
                                    << c.t_end_sec << " max_multiplier "
                                    << c.max_multiplier);
    Rng rng{8};
    const Rng before = rng;
    EXPECT_TRUE(generate_modulated_poisson(c.base_rate, c.t_end_sec,
                                           c.max_multiplier, nullptr, rng)
                    .empty());
    Rng untouched = before;
    EXPECT_EQ(rng(), untouched());  // no draw was taken
  }
}

TEST(BinArrivalsTest, CountsFallIntoCorrectWindows) {
  const std::vector<double> arrivals{0.1, 0.2, 1.1, 2.9, 5.0};
  const auto bins = bin_arrivals(arrivals, 0.0, 1.0, 4);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins[0], 2u);
  EXPECT_EQ(bins[1], 1u);
  EXPECT_EQ(bins[2], 1u);
  EXPECT_EQ(bins[3], 0u);  // 5.0 is beyond the window
}

TEST(BinArrivalsTest, StartOffsetShiftsBins) {
  const std::vector<double> arrivals{1.1, 1.6};
  const auto bins = bin_arrivals(arrivals, 1.0, 0.5, 2);
  EXPECT_EQ(bins[0], 1u);
  EXPECT_EQ(bins[1], 1u);
  // Arrivals before the start are ignored.
  const auto bins2 = bin_arrivals({0.5}, 1.0, 0.5, 2);
  EXPECT_EQ(bins2[0] + bins2[1], 0u);
}

}  // namespace
}  // namespace lexfor::tornet
