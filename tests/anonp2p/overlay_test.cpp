#include "anonp2p/overlay.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "oracles/nearest_holder.h"

namespace lexfor::anonp2p {
namespace {

TEST(OverlayTest, BuildsRequestedSize) {
  OverlayConfig cfg;
  cfg.num_peers = 40;
  Overlay overlay(cfg);
  EXPECT_EQ(overlay.peer_count(), 40u);
}

TEST(OverlayTest, GraphIsConnectedViaRingBackbone) {
  OverlayConfig cfg;
  cfg.num_peers = 30;
  cfg.trusted_degree = 2;
  Overlay overlay(cfg);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_GE(overlay.neighbors(PeerId{i}).size(), 2u) << "peer " << i;
  }
}

TEST(OverlayTest, DegreeApproximatesTarget) {
  OverlayConfig cfg;
  cfg.num_peers = 100;
  cfg.trusted_degree = 6;
  Overlay overlay(cfg);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_GE(overlay.neighbors(PeerId{i}).size(), 6u);
  }
}

TEST(OverlayTest, AtLeastOneHolderAlways) {
  OverlayConfig cfg;
  cfg.num_peers = 20;
  cfg.file_popularity = 0.0;  // would otherwise produce zero holders
  Overlay overlay(cfg);
  EXPECT_GE(overlay.holder_count(), 1u);
}

TEST(OverlayTest, PopularityControlsHolderCount) {
  OverlayConfig cfg;
  cfg.num_peers = 400;
  cfg.file_popularity = 0.25;
  Overlay overlay(cfg);
  const double frac =
      static_cast<double>(overlay.holder_count()) / 400.0;
  EXPECT_NEAR(frac, 0.25, 0.08);
}

TEST(OverlayTest, HopsToHolderIsZeroForHolders) {
  OverlayConfig cfg;
  cfg.num_peers = 30;
  Overlay overlay(cfg);
  for (std::size_t i = 0; i < 30; ++i) {
    if (overlay.holds_file(PeerId{i})) {
      EXPECT_EQ(overlay.hops_to_nearest_holder(PeerId{i}).value_or(-1), 0);
    }
  }
}

TEST(OverlayTest, TtlBoundsHopDistance) {
  OverlayConfig cfg;
  cfg.num_peers = 50;
  cfg.max_forward_hops = 2;
  Overlay overlay(cfg);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto hops = overlay.hops_to_nearest_holder(PeerId{i});
    if (hops.has_value()) {
      EXPECT_LE(*hops, 2);
    }
  }
}

// The constructor's hop table equals a fresh per-query search (the
// oracle) for every peer, over a fixed seed set and TTL 0 to 5: on a
// 2-peer overlay, at popularity 0 (one forced holder) and at popularity
// 1 (every peer holds).  A query's delay draws 1 + 2 hops exponentials
// from the oracle's hop count, and a timeout draws nothing.
TEST(OverlayTest, HopTableMatchesThePerQuerySearch) {
  struct Shape {
    std::size_t peers;
    std::size_t degree;
    double popularity;
  };
  const Shape shapes[] = {{2, 4, 0.15},  {2, 1, 0.0},   {30, 2, 0.0},
                          {64, 4, 0.15}, {128, 3, 0.05}, {40, 4, 1.0}};
  int found = 0;
  int timed_out = 0;
  for (const Shape& shape : shapes) {
    for (int ttl = 0; ttl <= 5; ++ttl) {
      for (const std::uint64_t seed : {1u, 7u, 42u, 99u}) {
        OverlayConfig cfg;
        cfg.num_peers = shape.peers;
        cfg.trusted_degree = shape.degree;
        cfg.file_popularity = shape.popularity;
        cfg.max_forward_hops = ttl;
        cfg.seed = seed;
        const Overlay overlay(cfg);
        for (std::size_t i = 0; i <= overlay.peer_count(); ++i) {
          const PeerId p{i};
          const auto expected = oracles::hops_to_nearest_holder(overlay, p);
          ASSERT_EQ(overlay.hops_to_nearest_holder(p).value_or(-1),
                    expected.value_or(-1))
              << shape.peers << " peers, ttl " << ttl << ", seed " << seed
              << ", peer " << i;
          Rng drawn{seed + i};
          Rng replay = drawn;
          const auto d = overlay.query_delay_ms(p, drawn);
          ASSERT_EQ(d.has_value(), expected.has_value());
          if (!expected.has_value()) {
            EXPECT_EQ(drawn(), replay());
            if (i < overlay.peer_count()) ++timed_out;
            continue;
          }
          ++found;
          double delay = replay.exponential(cfg.local_lookup_ms);
          for (int h = 0; h < 2 * *expected; ++h) {
            delay += replay.exponential(cfg.hop_delay_ms);
          }
          EXPECT_EQ(*d, delay);
        }
      }
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(timed_out, 0);
}

TEST(OverlayTest, SourceQueriesAreFasterThanProxyQueries) {
  OverlayConfig cfg;
  cfg.num_peers = 120;
  cfg.file_popularity = 0.2;
  cfg.local_lookup_ms = 20.0;
  cfg.hop_delay_ms = 80.0;
  Overlay overlay(cfg);
  Rng rng{31};

  double source_sum = 0, proxy_sum = 0;
  int source_n = 0, proxy_n = 0;
  constexpr int kProbes = 50;
  for (std::size_t i = 0; i < 120; ++i) {
    const PeerId p{i};
    for (int k = 0; k < kProbes; ++k) {
      const auto d = overlay.query_delay_ms(p, rng);
      if (!d.has_value()) continue;
      if (overlay.holds_file(p)) {
        source_sum += *d;
        ++source_n;
      } else {
        proxy_sum += *d;
        ++proxy_n;
      }
    }
  }
  ASSERT_GT(source_n, 0);
  ASSERT_GT(proxy_n, 0);
  const double source_mean = source_sum / source_n;
  const double proxy_mean = proxy_sum / proxy_n;
  // Proxies carry at least one round trip of forwarding on top.
  EXPECT_GT(proxy_mean, source_mean + cfg.hop_delay_ms);
}

TEST(OverlayTest, QueryDelayIsNulloptBeyondTtl) {
  OverlayConfig cfg;
  cfg.num_peers = 60;
  cfg.trusted_degree = 2;
  cfg.file_popularity = 0.0;  // exactly one forced holder
  cfg.max_forward_hops = 1;
  Overlay overlay(cfg);
  Rng rng{37};
  // Most ring peers are >1 hop from the single holder: they time out.
  int timeouts = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    if (!overlay.query_delay_ms(PeerId{i}, rng).has_value()) ++timeouts;
  }
  EXPECT_GT(timeouts, 40);
}

TEST(OverlayTest, InvalidPeerHandledGracefully) {
  Overlay overlay(OverlayConfig{});
  Rng rng{1};
  EXPECT_TRUE(overlay.neighbors(PeerId{}).empty());
  EXPECT_FALSE(overlay.holds_file(PeerId{9999}));
  EXPECT_FALSE(overlay.query_delay_ms(PeerId{9999}, rng).has_value());
}

TEST(OverlayTest, SameSeedSameTopology) {
  OverlayConfig cfg;
  cfg.seed = 77;
  Overlay a(cfg), b(cfg);
  ASSERT_EQ(a.peer_count(), b.peer_count());
  for (std::size_t i = 0; i < a.peer_count(); ++i) {
    EXPECT_EQ(a.neighbors(PeerId{i}).size(), b.neighbors(PeerId{i}).size());
    EXPECT_EQ(a.holds_file(PeerId{i}), b.holds_file(PeerId{i}));
  }
}

TEST(OverlayTest, QueryDelaysMatchTheGoldenDigest) {
  // Raw delays of 200 overlays of 128 peers, every peer probed 20 times,
  // folded with FNV-1a (a timeout folds as one marker word).  The delays
  // are sums of Rng::exponential draws, whose log is the owned util::log,
  // so every host and build gives these bits; under glibc's log, its
  // default variant and the one GLIBC_TUNABLES=glibc.cpu.hwcaps=
  // -AVX2,-FMA selects gave different digests.  The golden value was
  // computed from this build.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t answered = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    OverlayConfig cfg;
    cfg.num_peers = 128;
    cfg.seed = seed;
    const Overlay overlay(cfg);
    Rng rng = Rng::sub_stream(seed, 1);
    for (std::size_t p = 0; p < overlay.peer_count(); ++p) {
      for (int probe = 0; probe < 20; ++probe) {
        const auto d = overlay.query_delay_ms(PeerId{p}, rng);
        if (d.has_value()) ++answered;
        add(d.has_value() ? std::bit_cast<std::uint64_t>(*d) : ~0ULL);
      }
    }
  }
  EXPECT_GT(answered, 400'000u);
  EXPECT_EQ(h, 0xbf16bafb400b0ddeULL);
}

}  // namespace
}  // namespace lexfor::anonp2p
