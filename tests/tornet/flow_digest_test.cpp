// A golden digest of simulate_flow_bins' output: every bin, and the
// first four raw draws each flow's Rng makes after it, folded with
// FNV-1a over the §IV.B traceback's flows.  The composition grid in
// simulate_flow_test.cpp compares two paths of one build; this pins the
// bits themselves, so a change to the draw path, the blocked loops or
// the log that moves any bin fails here on every host and build (the
// LEXFOR_SIMD=OFF leg and the hwcaps -AVX2,-FMA stage run it too).
// The golden values were computed from the exact one-log-per-draw loop,
// before the packet path drew in blocks, and hold with the owned
// util::log too: no time lies close enough to a bin edge to move.  The
// sends digest pins generate_modulated_poisson the same way; its golden
// values come from the one-at-a-time thinning loop
// (tests/oracles/packet_path.h) with util::log, which sets the raw send
// times' last bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "tornet/anonymity_network.h"
#include "tornet/traceback.h"
#include "watermark/dsss.h"

namespace lexfor::tornet {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

// Flows 0..8 of seeds [first_seed, last_seed] as run_streaming_traceback
// simulates them at `config`: flow f draws from Rng::sub_stream(seed, f),
// builds its circuit, and flow 0 carries the mark.
std::uint64_t flow_digest(const TracebackConfig& config,
                          std::uint64_t first_seed, std::uint64_t last_seed) {
  const auto code = watermark::PnCode::m_sequence(config.pn_degree).value();
  const std::size_t n_chips = code.length();
  const double chip_sec = config.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;
  watermark::EmbedParams embed;
  embed.start = SimTime::zero();
  embed.chip_duration = SimDuration::from_ms(config.chip_ms);
  embed.depth = config.depth;
  const watermark::Embedder embedder(code, embed);
  const AnonymityNetwork net(config.network);
  const double shift = expected_circuit_shift_sec(config.network);

  Fnv1a fnv;
  std::vector<double> bins(n_chips);
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    for (std::uint64_t flow = 0; flow <= config.num_decoys; ++flow) {
      Rng rng = Rng::sub_stream(seed, flow);
      const Circuit circuit = net.build_circuit(rng).value();
      simulate_flow_bins(net, circuit, config.base_rate_pps, t_end,
                         1.0 + config.depth, flow == 0 ? &embedder : nullptr,
                         shift, chip_sec, bins, rng);
      for (const double b : bins) fnv.add(std::bit_cast<std::uint64_t>(b));
      for (int i = 0; i < 4; ++i) fnv.add(rng());
    }
  }
  return fnv.h;
}

// generate_modulated_poisson's sends at the multiflow scan's shape (a
// degree-9 code over 766 chips of 400 ms, planted at chip 37), marked
// and unmarked, over seeds [first_seed, last_seed]: every send time,
// then four raw draws of the Rng's end state.
std::uint64_t sends_digest(bool marked, std::uint64_t first_seed,
                           std::uint64_t last_seed) {
  const MultiflowConfig config;
  const auto code = watermark::PnCode::m_sequence(9).value();
  const double chip_sec = config.chip_ms * 1e-3;
  const double t_end = chip_sec * 766.0 + 2.0;
  watermark::EmbedParams embed;
  embed.chip_duration = SimDuration::from_ms(config.chip_ms);
  embed.start = SimTime::zero() + embed.chip_duration * 37;
  embed.depth = config.depth;
  const watermark::Embedder embedder(code, embed);
  const std::function<double(double)> mark = [&embedder](double t) {
    return embedder.multiplier(SimTime::from_sec(t));
  };

  Fnv1a fnv;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    Rng rng(seed);
    const auto sends = generate_modulated_poisson(
        config.base_rate_pps, t_end, 1.0 + config.depth,
        marked ? mark : nullptr, rng);
    fnv.add(sends.size());
    for (const double t : sends) fnv.add(std::bit_cast<std::uint64_t>(t));
    for (int i = 0; i < 4; ++i) fnv.add(rng());
  }
  return fnv.h;
}

TEST(FlowDigestTest, GeneratedSendsMatchTheGoldenDigest) {
  EXPECT_EQ(sends_digest(true, 1, 40), 0x589f80d1dba44a8ULL);
  EXPECT_EQ(sends_digest(false, 1, 40), 0x938ba504991a64d4ULL);
}

TEST(FlowDigestTest, DefaultTracebackFlowsMatchTheGoldenDigest) {
  EXPECT_EQ(flow_digest(TracebackConfig{}, 1, 60), 0xce4058b812448c1eULL);
}

TEST(FlowDigestTest, JitterZeroAndCircuitLengthsOneAndFiveMatchTheGoldenDigest) {
  TracebackConfig no_jitter;
  no_jitter.network.relay_jitter_ms = 0.0;
  EXPECT_EQ(flow_digest(no_jitter, 1, 20), 0x7943128ae20f3f13ULL);
  TracebackConfig one_hop;
  one_hop.network.circuit_length = 1;
  EXPECT_EQ(flow_digest(one_hop, 1, 20), 0x5a0c0e32220ef1b2ULL);
  TracebackConfig five_hops;
  five_hops.network.circuit_length = 5;
  EXPECT_EQ(flow_digest(five_hops, 1, 20), 0x4189cea9d9f78d18ULL);
}

// run_multiflow_traceback end to end: the correlation of every account
// code and the identified account, over seeds 1 to 40 of the default
// config and of one whose observed client is account 0.  The flow, the
// family scan and the despread all give the same bits in every build;
// the scan threshold is left out, since it still takes glibc's log.
TEST(FlowDigestTest, MultiflowCorrelationsMatchTheGoldenDigest) {
  Fnv1a fnv;
  std::size_t correct = 0;
  for (const std::size_t true_account : {std::size_t{3}, std::size_t{0}}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      MultiflowConfig config;
      config.true_account = true_account;
      config.seed = seed;
      const MultiflowResult r = run_multiflow_traceback(config).value();
      fnv.add(r.correlations.size());
      for (const double c : r.correlations) {
        fnv.add(std::bit_cast<std::uint64_t>(c));
      }
      fnv.add(r.identified_account);
      correct += r.correct;
    }
  }
  EXPECT_EQ(correct, 80u);
  EXPECT_EQ(fnv.h, 0x1c65849ccfafcda8ULL);
}

}  // namespace
}  // namespace lexfor::tornet
