// The blocked packet path against its one-at-a-time loops
// (tests/oracles/packet_path.h): generate_modulated_poisson and
// AnonymityNetwork::transit draw their uniforms in blocks and take each
// block's logs in one lane call, and must return the loops' sends and
// arrivals bit for bit and leave the Rng where the loops leave it.  The
// grid reaches the blocks' edges: a t_end on a candidate's exact running
// sum or either neighbour (the walk's crossing and its rewind), no sends,
// and circuits of 0 relays up to longer than a block of relay draws.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "oracles/packet_path.h"
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

// A degree-5 code of 400 ms chips at depth 0.35, planted at 1.2 s.
struct Mark {
  watermark::Embedder embedder{watermark::PnCode::m_sequence(5).value(), [] {
                                 watermark::EmbedParams p;
                                 p.start = SimTime::from_ms(1200.0);
                                 p.chip_duration = SimDuration::from_ms(400.0);
                                 p.depth = 0.35;
                                 return p;
                               }()};
  std::function<double(double)> fn() const {
    return [this](double t) {
      return embedder.multiplier(SimTime::from_sec(t));
    };
  }
};

// Both generators from `from`: true when sends and end states agree.
bool generate_matches(double base_rate, double t_end, double max_multiplier,
                      const std::function<double(double)>& multiplier,
                      const Rng& from) {
  Rng want_rng = from;
  Rng got_rng = from;
  const auto want = oracles::generate_modulated_poisson(
      base_rate, t_end, max_multiplier, multiplier, want_rng);
  const auto got = generate_modulated_poisson(base_rate, t_end,
                                              max_multiplier, multiplier,
                                              got_rng);
  return same_bits(want, got) && same_state(want_rng, got_rng);
}

TEST(PacketPathTest, BlockedGenerateMatchesTheOneAtATimeLoop) {
  // Rates from under one candidate per block to thousands of blocks,
  // marked and unmarked, the mark's depth folded into the peak rate.
  const Mark mark;
  std::size_t flows = 0;
  for (const double rate : {0.5, 20.0, 120.0, 162.0, 5e3}) {
    for (const double t_end : {0.01, 1.0, 14.0, 40.0}) {
      for (const bool marked : {false, true}) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
          const Rng from = Rng::sub_stream(90, flows);
          ASSERT_TRUE(generate_matches(rate, t_end, marked ? 1.35 : 1.0,
                                       marked ? mark.fn() : nullptr, from))
              << "rate " << rate << " t_end " << t_end
              << (marked ? " marked" : " unmarked") << " seed " << seed;
          ++flows;
        }
      }
    }
  }
  EXPECT_EQ(flows, 5u * 4 * 2 * 6);
}

// The walk's first n running sums from `rng` (which is not advanced),
// at mean gap 1 / lambda_max: candidate j's send time is sums[j - 1].
std::vector<double> partial_sums(Rng rng, double lambda_max, std::size_t n) {
  std::vector<double> sums;
  for (double t = 0.0; sums.size() < n;) {
    t += rng.exponential(1.0 / lambda_max);
    sums.push_back(t);
    (void)rng();
  }
  return sums;
}

TEST(PacketPathTest, TEndOnACandidatesExactSumMatchesTheOneAtATimeLoop) {
  // t_end on candidate j's exact running sum, or on either neighbouring
  // double: the loop stops at j or goes on, and the blocked walk must
  // cross at the same candidate and rewind to the same draw.  Positions
  // sit on both sides of the 64-candidate block edges.
  const Mark mark;
  const std::size_t positions[] = {1, 2, 63, 64, 65, 127, 128, 129, 700};
  std::size_t cases = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const bool marked = seed % 2 == 0;
    const double max_multiplier = marked ? 1.35 : 1.0;
    const double rate = 120.0;
    const Rng from = Rng::sub_stream(91, seed);
    const auto sums = partial_sums(from, rate * max_multiplier, 700);
    for (const std::size_t j : positions) {
      const double at = sums[j - 1];
      for (const double t_end : {std::nextafter(at, 0.0), at,
                                 std::nextafter(at, HUGE_VAL)}) {
        ASSERT_TRUE(generate_matches(rate, t_end, max_multiplier,
                                     marked ? mark.fn() : nullptr, from))
            << "seed " << seed << " candidate " << j << " t_end " << t_end;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 24u * std::size(positions) * 3);
}

TEST(PacketPathTest, NoSendsDrawWhatTheOneAtATimeLoopDraws) {
  // A t_end below the first gap takes that one draw and sends nothing;
  // the guarded inputs draw nothing at all.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Rng from = Rng::sub_stream(92, seed);
    const double first = partial_sums(from, 120.0, 1).front();
    Rng got = from;
    EXPECT_TRUE(
        generate_modulated_poisson(120.0, first * 0.5, 1.0, nullptr, got)
            .empty());
    Rng one = from;
    (void)one();
    EXPECT_TRUE(same_state(got, one)) << seed;
    EXPECT_TRUE(generate_matches(120.0, first, 1.0, nullptr, from)) << seed;
  }
  for (const double rate : {0.0, -1.0}) {
    const Rng from{93};
    Rng got = from;
    EXPECT_TRUE(generate_modulated_poisson(rate, 10.0, 1.0, nullptr, got)
                    .empty());
    EXPECT_TRUE(same_state(got, from)) << rate;
  }
}

TEST(PacketPathTest, BlockedTransitMatchesTheOneAtATimeLoopAtAnyLength) {
  // A block holds 128 relay draws: circuits of 42 and 43 relays end a
  // block mid-packet at different places, 128 fills one block a packet
  // and 129 and 300 span two or three.  Jitter 0 makes every jitter term
  // a signed zero.  Send counts of 0, 1 and a few blocks' worth.
  const Mark mark;
  std::size_t flows = 0;
  for (const int length : {0, 1, 3, 5, 42, 43, 128, 129, 300}) {
    for (const double jitter_ms : {0.0, 30.0}) {
      TorConfig tor;
      tor.num_relays = 300;
      tor.circuit_length = length;
      tor.relay_jitter_ms = jitter_ms;
      const AnonymityNetwork net(tor);
      for (const bool marked : {false, true}) {
        for (const double t_end : {0.0, 0.005, 0.6, 3.0}) {
          Rng rng = Rng::sub_stream(94, flows++);
          const Circuit circuit = net.build_circuit(rng).value();
          const auto sends = oracles::generate_modulated_poisson(
              120.0, t_end, marked ? 1.35 : 1.0,
              marked ? mark.fn() : nullptr, rng);
          Rng want_rng = rng;
          Rng got_rng = rng;
          const auto want = oracles::transit(net, circuit, sends, want_rng);
          const auto got = net.transit(circuit, sends, got_rng);
          const std::string where =
              "length " + std::to_string(length) + " jitter " +
              std::to_string(jitter_ms) + " t_end " + std::to_string(t_end) +
              " sends " + std::to_string(sends.size());
          ASSERT_TRUE(same_bits(want, got)) << where;
          ASSERT_TRUE(same_state(want_rng, got_rng)) << where;
        }
      }
    }
  }
  EXPECT_EQ(flows, 9u * 2 * 2 * 4);
}

TEST(PacketPathTest, TransitDrawCountsAroundTheBlockEdge) {
  // 3-relay packets whose draws end one short of, on, and one past the
  // first and second block edges (42 packets take 126 of 128 draws).
  const AnonymityNetwork net(TorConfig{});
  for (const std::size_t packets :
       {std::size_t{42}, std::size_t{43}, std::size_t{85}, std::size_t{86},
        std::size_t{87}}) {
    Rng rng{95};
    const Circuit circuit = net.build_circuit(rng).value();
    std::vector<double> sends(packets);
    for (std::size_t i = 0; i < packets; ++i) sends[i] = 0.01 * i;
    Rng want_rng = rng;
    Rng got_rng = rng;
    const auto want = oracles::transit(net, circuit, sends, want_rng);
    const auto got = net.transit(circuit, sends, got_rng);
    EXPECT_TRUE(same_bits(want, got)) << packets;
    EXPECT_TRUE(same_state(want_rng, got_rng)) << packets;
  }
}

}  // namespace
}  // namespace lexfor::tornet
