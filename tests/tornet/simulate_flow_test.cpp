// simulate_flow_bins against the composition it replaces:
// bin_arrivals(transit(generate_modulated_poisson(...))).  The bins must
// match bit for bit and the caller's Rng must end where the composition
// leaves it, over a grid of network, code and rate settings and at the
// degenerate inputs the composition guards against.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tornet/anonymity_network.h"
#include "watermark/dsss.h"

namespace lexfor::tornet {
namespace {

// Equal generators agree on every later draw; one slipped draw makes
// them disagree at once.
bool same_state(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a() != b()) return false;
  }
  return true;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// The arguments shared by both sides of the comparison.
struct FlowArgs {
  double base_rate = 120.0;
  double t_end_sec = 10.0;
  double max_multiplier = 1.0;
  double start_sec = 0.0;
  double window_sec = 0.5;
  std::size_t windows = 20;
};

std::vector<double> composed(const AnonymityNetwork& net,
                             const Circuit& circuit, const FlowArgs& a,
                             const std::function<double(double)>& multiplier,
                             Rng& rng) {
  const auto sends = generate_modulated_poisson(
      a.base_rate, a.t_end_sec, a.max_multiplier, multiplier, rng);
  const auto arrivals = net.transit(circuit, sends, rng);
  const auto counts =
      bin_arrivals(arrivals, a.start_sec, a.window_sec, a.windows);
  return {counts.begin(), counts.end()};
}

template <typename Multiplier>
std::vector<double> fused(const AnonymityNetwork& net, const Circuit& circuit,
                          const FlowArgs& a, const Multiplier& multiplier,
                          Rng& rng) {
  // Start from garbage: the pass must clear the bins itself.
  std::vector<double> bins(a.windows, -7.0);
  simulate_flow_bins(net, circuit, a.base_rate, a.t_end_sec,
                     a.max_multiplier, multiplier, a.start_sec, a.window_sec,
                     bins, rng);
  return bins;
}

TEST(SimulateFlowBinsTest, MatchesCompositionOverConfigurationGrid) {
  // The §IV.B flow shapes: code length, relay jitter, mark depth,
  // circuit length, rate, and a marked or unmarked flow.
  constexpr double kChipMs = 400.0;
  std::uint64_t index = 0;
  std::size_t packets = 0;
  for (const int degree : {5, 7, 9, 10}) {
    const auto code = watermark::PnCode::m_sequence(degree).value();
    const std::size_t n_chips = code.length();
    for (const double jitter_ms : {0.0, 30.0, 150.0}) {
      for (const double depth : {0.1, 0.35, 0.5}) {
        watermark::EmbedParams embed;
        embed.start = SimTime::zero();
        embed.chip_duration = SimDuration::from_ms(kChipMs);
        embed.depth = depth;
        const watermark::Embedder embedder(code, embed);
        const auto mark = [&embedder](double t_sec) {
          return embedder.multiplier(SimTime::from_sec(t_sec));
        };
        for (const int length : {1, 3, 5}) {
          TorConfig tor;
          tor.circuit_length = length;
          tor.relay_jitter_ms = jitter_ms;
          const AnonymityNetwork net(tor);
          for (const double rate : {20.0, 120.0}) {
            for (const bool marked : {false, true}) {
              FlowArgs a;
              a.base_rate = rate;
              a.t_end_sec =
                  kChipMs * 1e-3 * static_cast<double>(n_chips) + 2.0;
              a.max_multiplier = 1.0 + depth;
              a.start_sec = length *
                            (tor.hop_latency_ms + jitter_ms +
                             tor.relay_batch_ms / 2.0) *
                            1e-3;
              a.window_sec = kChipMs * 1e-3;
              a.windows = n_chips;

              Rng rng = Rng::sub_stream(2026, index++);
              const Circuit circuit = net.build_circuit(rng).value();
              Rng expect_rng = rng;
              Rng got_rng = rng;
              const auto expect =
                  composed(net, circuit, a,
                           marked ? std::function<double(double)>(mark)
                                  : std::function<double(double)>(),
                           expect_rng);
              const auto got =
                  marked ? fused(net, circuit, a, mark, got_rng)
                         : fused(net, circuit, a, UnitMultiplier{}, got_rng);

              const std::string where =
                  "degree " + std::to_string(degree) + " jitter " +
                  std::to_string(jitter_ms) + " depth " +
                  std::to_string(depth) + " length " +
                  std::to_string(length) + " rate " + std::to_string(rate) +
                  (marked ? " marked" : " unmarked");
              ASSERT_TRUE(same_bits(expect, got)) << where;
              ASSERT_TRUE(same_state(expect_rng, got_rng)) << where;
              for (const double c : got) packets += static_cast<std::size_t>(c);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(index, 4u * 3 * 3 * 3 * 2 * 2);
  // The grid really carried traffic through the windows.
  EXPECT_GT(packets, 1'000'000u);
}

TEST(SimulateFlowBinsTest, DegenerateInputsMatchComposition) {
  // The composition's guards: a rate or t_end <= 0 draws nothing and
  // sends nothing (without the guard a negative rate never reaches
  // t_end), and a window <= 0 or no windows at all counts nothing
  // although the draws still happen.  Each case must finish, return
  // all-zero bins and leave the Rng where the composition does.
  const AnonymityNetwork net(TorConfig{});
  struct Case {
    const char* name;
    double base_rate;
    double t_end_sec;
    double window_sec;
    std::size_t windows;
  };
  for (const Case& c : {Case{"rate 0", 0.0, 10.0, 0.5, 20},
                        Case{"rate -1", -1.0, 10.0, 0.5, 20},
                        Case{"t_end 0", 120.0, 0.0, 0.5, 20},
                        Case{"t_end -1", 120.0, -1.0, 0.5, 20},
                        Case{"window 0", 120.0, 10.0, 0.0, 20},
                        Case{"window -1", 120.0, 10.0, -1.0, 20},
                        Case{"no windows", 120.0, 10.0, 0.5, 0}}) {
    FlowArgs a;
    a.base_rate = c.base_rate;
    a.t_end_sec = c.t_end_sec;
    a.window_sec = c.window_sec;
    a.windows = c.windows;
    Rng rng{31};
    const Circuit circuit = net.build_circuit(rng).value();
    Rng expect_rng = rng;
    Rng got_rng = rng;
    const auto expect = composed(net, circuit, a, nullptr, expect_rng);
    const auto got = fused(net, circuit, a, UnitMultiplier{}, got_rng);
    EXPECT_TRUE(same_bits(expect, got)) << c.name;
    EXPECT_EQ(got, std::vector<double>(a.windows, 0.0)) << c.name;
    EXPECT_TRUE(same_state(expect_rng, got_rng)) << c.name;
  }
}

}  // namespace
}  // namespace lexfor::tornet
