// serve::VerdictServer — admission accounting, verdict parity with the
// direct evaluator, overload shedding, and steady-state allocation
// behaviour.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "legal/scene_table.h"
#include "legal/table1.h"
#include "obs/obs.h"
#include "serve/fleet.h"

namespace lexfor::serve {
namespace {

[[nodiscard]] std::vector<std::uint8_t> frames_for(
    const std::vector<legal::Scenario>& scenarios) {
  std::vector<std::uint8_t> buf;
  std::uint64_t id = 1;
  for (const auto& s : scenarios) wire::encode_request(s, id++, buf);
  return buf;
}

// A scenario's facts without legal::FactKey: its request frame with the
// name stripped.
[[nodiscard]] std::vector<std::uint8_t> fact_set(legal::Scenario s) {
  s.name.clear();
  std::vector<std::uint8_t> frame;
  wire::encode_request(s, 0, frame);
  return frame;
}

// Distinct fact sets among `scenarios`.
[[nodiscard]] std::size_t distinct_fact_sets(
    const std::vector<legal::Scenario>& scenarios) {
  std::set<std::vector<std::uint8_t>> frames;
  for (const legal::Scenario& s : scenarios) frames.insert(fact_set(s));
  return frames.size();
}

[[nodiscard]] std::vector<wire::Response> decode_all(
    std::span<const std::uint8_t> buf) {
  std::vector<wire::Response> out;
  while (!buf.empty()) {
    const auto info = wire::peek_frame(buf);
    EXPECT_TRUE(info.ok());
    if (!info.ok()) break;
    wire::Response r;
    EXPECT_TRUE(
        wire::decode_response(buf.subspan(0, info.value().frame_len), r).ok());
    out.push_back(r);
    buf = buf.subspan(info.value().frame_len);
  }
  return out;
}

TEST(VerdictServerTest, AnswersEveryLibrarySceneLikeTheEvaluator) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  std::vector<legal::Scenario> scenarios;
  for (const auto& d : legal::library::scenes()) scenarios.push_back(d.build());
  for (const auto& scene : legal::table1::all_scenes()) {
    scenarios.push_back(scene.scenario);
  }

  const ServeStats stats = server.serve(conn, frames_for(scenarios));
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, scenarios.size());
  EXPECT_EQ(stats.accepted, scenarios.size());
  EXPECT_EQ(stats.responses, scenarios.size());
  EXPECT_EQ(stats.shed_queue_full, 0u);

  const auto responses = decode_all(conn.responses());
  ASSERT_EQ(responses.size(), scenarios.size());
  legal::BatchEvaluator direct(legal::BatchOptions{.use_shared_cache = false});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const legal::Determination d = direct.evaluate(scenarios[i]);
    EXPECT_EQ(responses[i].request_id, i + 1);
    EXPECT_EQ(responses[i].needs_process, d.needs_process) << i;
    EXPECT_EQ(responses[i].required_process, d.required_process) << i;
    EXPECT_EQ(responses[i].required_proof, d.required_proof) << i;
    EXPECT_EQ(responses[i].status, StatusCode::kOk);
  }
}

TEST(VerdictServerTest, ResponsesComeBackInRequestOrderAcrossWorkerCounts) {
  FleetOptions fopts;
  fopts.fleet_size = 512;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(1, wave);

  for (const unsigned workers : {1u, 2u, 4u}) {
    ServerOptions opts;
    opts.workers = workers;
    opts.batch.use_shared_cache = false;
    VerdictServer server(opts);
    Connection conn = server.connect();
    const ServeStats stats = server.serve(conn, wave);
    EXPECT_TRUE(stats.balanced());
    EXPECT_EQ(stats.accepted, fopts.fleet_size);

    const auto responses = decode_all(conn.responses());
    ASSERT_EQ(responses.size(), fopts.fleet_size);
    for (std::size_t c = 0; c < responses.size(); ++c) {
      EXPECT_EQ(responses[c].request_id, SyntheticFleet::request_id(1, c));
    }
  }
}

TEST(VerdictServerTest, VerdictsAreIdenticalAcrossWorkerCounts) {
  FleetOptions fopts;
  fopts.fleet_size = 256;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(2, wave);

  std::vector<std::vector<wire::Response>> per_worker;
  for (const unsigned workers : {1u, 3u}) {
    ServerOptions opts;
    opts.workers = workers;
    opts.batch.use_shared_cache = false;
    VerdictServer server(opts);
    Connection conn = server.connect();
    server.serve(conn, wave);
    per_worker.push_back(decode_all(conn.responses()));
  }
  ASSERT_EQ(per_worker[0].size(), per_worker[1].size());
  for (std::size_t i = 0; i < per_worker[0].size(); ++i) {
    EXPECT_EQ(per_worker[0][i].request_id, per_worker[1][i].request_id);
    EXPECT_EQ(per_worker[0][i].needs_process, per_worker[1][i].needs_process);
    EXPECT_EQ(per_worker[0][i].required_process,
              per_worker[1][i].required_process);
    EXPECT_EQ(per_worker[0][i].required_proof,
              per_worker[1][i].required_proof);
  }
}

// Each accepted request adds one serve.request_latency_ns sample, and
// the samples are the server_ns values its responses carry, whether the
// chunks run inline or on pool workers.  With obs compiled out the
// histogram stays still.  Inline, the requests' intervals are disjoint
// and inside the call, so their sum cannot exceed the call's duration.
TEST(VerdictServerTest, LatencyHistogramGainsEachAcceptedRequestsServerNs) {
  FleetOptions fopts;
  fopts.fleet_size = 2048;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(4, wave);
  const obs::Histogram& latency =
      obs::metrics().histogram("serve.request_latency_ns");

  for (const unsigned workers : {1u, 4u}) {
    ServerOptions opts;
    opts.workers = workers;
    opts.batch.use_shared_cache = false;
    VerdictServer server(opts);
    Connection conn = server.connect();
    const std::uint64_t count_before = latency.count();
    const std::int64_t sum_before = latency.sum();
    const auto t0 = std::chrono::steady_clock::now();
    const ServeStats stats = server.serve(conn, wave);
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_EQ(stats.accepted, fopts.fleet_size);

    std::uint64_t server_ns = 0;
    for (const wire::Response& r : decode_all(conn.responses())) {
      server_ns += r.server_ns;
    }
#if LEXFOR_OBS
    EXPECT_EQ(latency.count() - count_before, stats.accepted) << workers;
    EXPECT_EQ(static_cast<std::uint64_t>(latency.sum() - sum_before),
              server_ns)
        << workers;
#else
    EXPECT_EQ(latency.count(), count_before) << workers;
    EXPECT_EQ(latency.sum(), sum_before) << workers;
#endif
    if (workers == 1) {
      EXPECT_LE(server_ns,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count()));
    }
  }
}

// At one worker a 64-request batch runs as 8 chunks of 8 requests.  A
// miss carries its own interval; the hits of a chunk share the rest of
// the chunk's time, so they differ by at most 1 ns.  Wave 1 is all
// misses, wave 2 gives chunk c its c hits first, then 8 - c misses, and
// wave 3 is all hits.
TEST(VerdictServerTest, HitsShareTheirChunksTimeMissesKeepTheirOwn) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kChunk = 8;
  // Distinct fact keys: flag words 0, 1, 2, ... on one base scenario.
  std::uint32_t next_key = 0;
  const auto fresh = [&next_key] {
    legal::Scenario s;
    legal::set_flag_word(next_key++, s);
    return s;
  };
  std::vector<legal::Scenario> wave1;
  for (std::size_t i = 0; i < kBatch; ++i) wave1.push_back(fresh());
  std::vector<legal::Scenario> wave2;
  for (std::size_t c = 0; c < kBatch / kChunk; ++c) {
    for (std::size_t j = 0; j < kChunk; ++j) {
      wave2.push_back(j < c ? wave1[c * kChunk + j] : fresh());
    }
  }

  ServerOptions opts;
  opts.workers = 1;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();
  const obs::Histogram& latency =
      obs::metrics().histogram("serve.request_latency_ns");

  // Wave 3 repeats wave 1, whose keys are all in the table by then.
  const std::vector<legal::Scenario>* waves[] = {&wave1, &wave2, &wave1};
  for (std::size_t w = 0; w < 3; ++w) {
    const std::vector<std::uint8_t> frames = frames_for(*waves[w]);
    const std::uint64_t count_before = latency.count();
    const std::int64_t sum_before = latency.sum();
    const auto t0 = std::chrono::steady_clock::now();
    const ServeStats stats = server.serve(conn, frames);
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_EQ(stats.accepted, kBatch) << w;

    const auto responses = decode_all(conn.responses());
    ASSERT_EQ(responses.size(), kBatch) << w;
    std::uint64_t server_ns = 0;
    for (std::size_t c = 0; c < kBatch / kChunk; ++c) {
      std::uint64_t lo = UINT64_MAX;
      std::uint64_t hi = 0;
      for (std::size_t j = 0; j < kChunk; ++j) {
        const wire::Response& r = responses[c * kChunk + j];
        const std::size_t hits = w == 0 ? 0 : w == 1 ? c : kChunk;
        EXPECT_EQ(r.cache_hit, j < hits) << w << " " << c << " " << j;
        EXPECT_GT(r.server_ns, 0u) << w << " " << c << " " << j;
        server_ns += r.server_ns;
        if (r.cache_hit) {
          lo = std::min(lo, r.server_ns);
          hi = std::max(hi, r.server_ns);
        }
      }
      if (hi != 0) {
        EXPECT_LE(hi - lo, 1u) << w << " " << c;
      }
    }
    EXPECT_LE(server_ns,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                      .count()))
        << w;
#if LEXFOR_OBS
    EXPECT_EQ(latency.count() - count_before, kBatch) << w;
    EXPECT_EQ(static_cast<std::uint64_t>(latency.sum() - sum_before),
              server_ns)
        << w;
#else
    EXPECT_EQ(latency.count(), count_before) << w;
    EXPECT_EQ(latency.sum(), sum_before) << w;
#endif
  }
}

// Serves `frames` and checks serve.request_latency_ns against a twin fed
// the responses' server_ns one at a time: every bucket, the count, the
// sum, and (the histogram is reset first) min and max.  With obs
// compiled out the histogram stays still.
void expect_latency_matches_one_record_per_response(
    VerdictServer& server, Connection& conn,
    std::span<const std::uint8_t> frames, const std::string& label) {
  obs::Histogram& latency =
      obs::metrics().histogram("serve.request_latency_ns");
  latency.reset();
  const ServeStats stats = server.serve(conn, frames);
  obs::Histogram twin("twin", latency.bounds());
  for (const wire::Response& r : decode_all(conn.responses())) {
    twin.record(r.server_ns);
  }
  ASSERT_EQ(twin.count(), stats.accepted) << label;
#if LEXFOR_OBS
  ASSERT_EQ(latency.num_buckets(), twin.num_buckets());
  for (std::size_t i = 0; i < twin.num_buckets(); ++i) {
    EXPECT_EQ(latency.bucket_count(i), twin.bucket_count(i))
        << label << " bucket " << i;
  }
  EXPECT_EQ(latency.count(), twin.count()) << label;
  EXPECT_EQ(latency.sum(), twin.sum()) << label;
  EXPECT_EQ(latency.min(), twin.min()) << label;
  EXPECT_EQ(latency.max(), twin.max()) << label;
#else
  EXPECT_EQ(latency.count(), 0u) << label;
  EXPECT_EQ(latency.sum(), 0) << label;
#endif
}

// A chunk's hits reach the latency histogram as two counted samples, and
// the histogram still ends as one sample per response would leave it:
// on chunks of all misses, of hits then misses, and of all hits (the
// waves of HitsShareTheirChunksTimeMissesKeepTheirOwn), and on a fleet
// wave, cold and then warm, at 1 and 4 workers.
TEST(VerdictServerTest, LatencyHistogramMatchesOneRecordPerResponse) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kChunk = 8;
  std::uint32_t next_key = 0;
  const auto fresh = [&next_key] {
    legal::Scenario s;
    legal::set_flag_word(next_key++, s);
    return s;
  };
  std::vector<legal::Scenario> misses;
  for (std::size_t i = 0; i < kBatch; ++i) misses.push_back(fresh());
  std::vector<legal::Scenario> mixed;
  for (std::size_t c = 0; c < kBatch / kChunk; ++c) {
    for (std::size_t j = 0; j < kChunk; ++j) {
      mixed.push_back(j < c ? misses[c * kChunk + j] : fresh());
    }
  }
  {
    ServerOptions opts;
    opts.workers = 1;
    opts.batch.use_shared_cache = false;
    VerdictServer server(opts);
    Connection conn = server.connect();
    expect_latency_matches_one_record_per_response(
        server, conn, frames_for(misses), "all misses");
    expect_latency_matches_one_record_per_response(
        server, conn, frames_for(mixed), "hits then misses");
    expect_latency_matches_one_record_per_response(
        server, conn, frames_for(misses), "all hits");
  }

  FleetOptions fopts;
  fopts.fleet_size = 2048;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(4, wave);
  for (const unsigned workers : {1u, 4u}) {
    ServerOptions opts;
    opts.workers = workers;
    opts.batch.use_shared_cache = false;
    VerdictServer server(opts);
    Connection conn = server.connect();
    const std::string label = "fleet, " + std::to_string(workers) + " workers";
    expect_latency_matches_one_record_per_response(server, conn, wave,
                                                   label + ", cold");
    expect_latency_matches_one_record_per_response(server, conn, wave,
                                                   label + ", warm");
  }
}

TEST(VerdictServerTest, WorkersReportsTheResolvedWidth) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  opts.workers = 0;
  EXPECT_EQ(VerdictServer(opts).workers(),
            std::max(1u, std::thread::hardware_concurrency()));
  opts.workers = 3;
  EXPECT_EQ(VerdictServer(opts).workers(), 3u);
}

TEST(VerdictServerTest, OverloadShedsExactlyAndStillAnswersAccepted) {
  ServerOptions opts;
  opts.queue_capacity = 10;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  std::vector<legal::Scenario> scenarios(40,
                                         legal::table1::scene(1).scenario);
  const ServeStats stats = server.serve(conn, frames_for(scenarios));
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, 40u);
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.shed_queue_full, 30u);
  EXPECT_EQ(stats.responses, 10u);
  EXPECT_EQ(decode_all(conn.responses()).size(), 10u);
}

TEST(VerdictServerTest, ClassifiesGarbageDuringOverload) {
  ServerOptions opts;
  opts.queue_capacity = 2;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  // 2 good (accepted) + 1 good (shed) + 1 version-skewed + 1 malformed,
  // all past the admission bound except the first two.
  std::vector<std::uint8_t> buf;
  const legal::Scenario s = legal::table1::scene(2).scenario;
  wire::encode_request(s, 1, buf);
  wire::encode_request(s, 2, buf);
  wire::encode_request(s, 3, buf);

  std::size_t at = buf.size();
  wire::encode_request(s, 4, buf);
  buf[at + 4] = wire::kWireVersion + 3;  // version skew

  at = buf.size();
  wire::encode_request(s, 5, buf);
  buf[at + 6] = 1;  // reserved byte -> malformed payload

  const ServeStats stats = server.serve(conn, buf);
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, 5u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.rejected_version, 1u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
}

TEST(VerdictServerTest, LostFramingChargesOneMalformedAndStops) {
  VerdictServer server;
  Connection conn = server.connect();

  std::vector<std::uint8_t> buf;
  wire::encode_request(legal::table1::scene(1).scenario, 1, buf);
  buf.push_back(0xDE);  // trailing garbage: not a navigable header
  buf.push_back(0xAD);

  const ServeStats stats = server.serve(conn, buf);
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, 2u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
}

TEST(VerdictServerTest, VersionSkewMidStreamIsSkippedNotFatal) {
  VerdictServer server;
  Connection conn = server.connect();

  std::vector<std::uint8_t> buf;
  const legal::Scenario s = legal::table1::scene(4).scenario;
  wire::encode_request(s, 1, buf);
  const std::size_t at = buf.size();
  wire::encode_request(s, 2, buf);
  buf[at + 4] = wire::kWireVersion + 1;
  wire::encode_request(s, 3, buf);

  const ServeStats stats = server.serve(conn, buf);
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_version, 1u);
  const auto responses = decode_all(conn.responses());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].request_id, 1u);
  EXPECT_EQ(responses[1].request_id, 3u);
}

TEST(VerdictServerTest, SteadyStateKeepsConnectionFootprintFlat) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  FleetOptions fopts;
  fopts.fleet_size = 200;
  const SyntheticFleet fleet(fopts);
  std::vector<std::uint8_t> wave;
  fleet.generate_wave(0, wave);

  // Warm-up batch grows slots/responses to their high-water mark.
  server.serve(conn, wave);
  const std::size_t slot_cap = conn.slot_capacity();
  const std::size_t resp_cap = conn.response_capacity();

  for (int i = 0; i < 8; ++i) {
    const ServeStats stats = server.serve(conn, wave);
    EXPECT_EQ(stats.accepted, fopts.fleet_size);
  }
  EXPECT_EQ(conn.slot_capacity(), slot_cap);
  EXPECT_EQ(conn.response_capacity(), resp_cap);
  EXPECT_EQ(conn.batches_served(), 9u);
}

TEST(VerdictServerTest, SecondWaveHitsTheCompactVerdictTable) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  std::vector<legal::Scenario> scenarios;
  for (const auto& d : legal::library::scenes()) scenarios.push_back(d.build());
  const auto buf = frames_for(scenarios);

  // The table keys on facts, not names: scenes that ask the same
  // question under different names miss once between them.
  const ServeStats cold = server.serve(conn, buf);
  EXPECT_EQ(cold.cache_misses, distinct_fact_sets(scenarios));
  const ServeStats warm = server.serve(conn, buf);
  EXPECT_EQ(warm.cache_hits, scenarios.size());
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST(VerdictServerTest, RenamedScenarioIsATableHitWithTheSameVerdict) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  std::vector<legal::Scenario> scenarios;
  for (const auto& scene : legal::table1::all_scenes()) {
    scenarios.push_back(scene.scenario);
  }
  for (const auto& d : legal::library::scenes()) scenarios.push_back(d.build());
  (void)server.serve(conn, frames_for(scenarios));
  const auto first = decode_all(conn.responses());

  std::vector<legal::Scenario> renamed = scenarios;
  for (auto& s : renamed) s.name = "relabelled: " + s.name;
  const ServeStats again = server.serve(conn, frames_for(renamed));
  EXPECT_EQ(again.cache_hits, renamed.size());
  EXPECT_EQ(again.cache_misses, 0u);
  const auto second = decode_all(conn.responses());
  ASSERT_EQ(first.size(), scenarios.size());
  ASSERT_EQ(second.size(), scenarios.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].cache_hit) << i;
    EXPECT_EQ(second[i].needs_process, first[i].needs_process) << i;
    EXPECT_EQ(second[i].required_process, first[i].required_process) << i;
    EXPECT_EQ(second[i].required_proof, first[i].required_proof) << i;
  }
}

// Slots are recycled across batches and evaluation overwrites them in
// place: each response must carry its own request's verdict and hit
// flag, never what the slot's previous occupant left there.
TEST(VerdictServerTest, RecycledSlotsAnswerForTheirNewRequest) {
  ServerOptions opts;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();
  legal::BatchEvaluator direct(legal::BatchOptions{.use_shared_cache = false});
  std::set<std::vector<std::uint8_t>> seen;  // fact sets served so far

  const auto serve_and_check = [&](const std::vector<legal::Scenario>& batch) {
    const ServeStats stats = server.serve(conn, frames_for(batch));
    EXPECT_EQ(stats.accepted, batch.size());
    const auto responses = decode_all(conn.responses());
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const legal::Determination d = direct.evaluate(batch[i]);
      EXPECT_EQ(responses[i].request_id, i + 1);
      EXPECT_EQ(responses[i].needs_process, d.needs_process) << i;
      EXPECT_EQ(responses[i].required_process, d.required_process) << i;
      EXPECT_EQ(responses[i].required_proof, d.required_proof) << i;
      // Inline evaluation runs in request order, so a fact set hits the
      // table exactly when an earlier request carried it.
      EXPECT_EQ(responses[i].cache_hit, !seen.insert(fact_set(batch[i])).second)
          << i;
    }
  };

  std::vector<legal::Scenario> table1;
  for (const auto& scene : legal::table1::all_scenes()) {
    table1.push_back(scene.scenario);
  }
  std::vector<legal::Scenario> library;
  for (const auto& d : legal::library::scenes()) library.push_back(d.build());

  serve_and_check(table1);
  std::reverse(table1.begin(), table1.end());
  serve_and_check(table1);   // every slot gets another scene
  serve_and_check(library);  // more slots, new fact sets miss
  library.resize(library.size() / 3);
  serve_and_check(library);  // fewer slots, all hits
}

// serve() returns one batch's accounting; the totals across batches are
// the serve.* obs counters, which gain exactly what the batches report.
TEST(VerdictServerTest, ServeCountersSumTheBatches) {
  ServerOptions opts;
  opts.queue_capacity = 5;
  opts.batch.use_shared_cache = false;
  VerdictServer server(opts);
  Connection conn = server.connect();

  std::vector<legal::Scenario> scenarios(8, legal::table1::scene(1).scenario);
  const auto buf = frames_for(scenarios);
  const char* const names[] = {"serve.requests", "serve.responses",
                               "serve.sheds", "serve.cache_hits",
                               "serve.cache_misses"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) {
    before.push_back(obs::metrics().counter(name).value());
  }

  ServeStats total;
  for (int i = 0; i < 2; ++i) {
    const ServeStats s = server.serve(conn, buf);
    EXPECT_TRUE(s.balanced());
    total.offered += s.offered;
    total.accepted += s.accepted;
    total.shed_queue_full += s.shed_queue_full;
    total.responses += s.responses;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
  }
  EXPECT_EQ(total.offered, 16u);
  EXPECT_EQ(total.accepted, 10u);
  EXPECT_EQ(total.shed_queue_full, 6u);
  EXPECT_EQ(total.responses, 10u);
  EXPECT_EQ(total.cache_misses, 1u);  // one scene, inline: one miss
  EXPECT_EQ(total.cache_hits, 9u);

  const std::uint64_t want[] = {total.offered, total.responses,
                                total.shed_queue_full, total.cache_hits,
                                total.cache_misses};
  for (std::size_t i = 0; i < std::size(names); ++i) {
    const std::uint64_t gained =
        obs::metrics().counter(names[i]).value() - before[i];
#if LEXFOR_OBS
    EXPECT_EQ(gained, want[i]) << names[i];
#else
    EXPECT_EQ(gained, 0u) << names[i];
    (void)want;
#endif
  }
}

TEST(VerdictServerTest, EmptyBatchIsANoOp) {
  VerdictServer server;
  Connection conn = server.connect();
  const ServeStats stats = server.serve(conn, {});
  EXPECT_TRUE(stats.balanced());
  EXPECT_EQ(stats.offered, 0u);
  EXPECT_TRUE(conn.responses().empty());
}

// One chunk's server_ns values as VerdictServer::evaluate_range sets
// them: `own` holds each miss's own interval (ignored for a hit).
std::vector<std::uint64_t> chunk_values(const std::vector<bool>& hit,
                                        std::vector<std::uint64_t> own,
                                        std::uint64_t chunk_ns) {
  std::uint64_t miss_ns = 0;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < hit.size(); ++i) {
    if (hit[i]) {
      ++hits;
    } else {
      miss_ns += own[i];
    }
  }
  const ChunkSplit split = split_chunk_ns(chunk_ns, miss_ns, hits);
  if (hits == 0) own.back() += split.last_extra_ns;
  std::uint64_t longer = split.longer_hits;
  for (std::size_t i = 0; i < hit.size(); ++i) {
    if (!hit[i]) continue;
    own[i] = split.hit_ns + (longer != 0 ? 1 : 0);
    if (longer != 0) --longer;
  }
  return own;
}

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) total += x;
  return total;
}

TEST(ChunkSplitTest, ValuesAddUpToTheChunkTime) {
  // All hits, with and without a remainder.
  EXPECT_EQ(chunk_values(std::vector<bool>(8, true),
                         std::vector<std::uint64_t>(8, 0), 1000),
            std::vector<std::uint64_t>(8, 125));
  EXPECT_EQ(chunk_values(std::vector<bool>(8, true),
                         std::vector<std::uint64_t>(8, 0), 1003),
            (std::vector<std::uint64_t>{126, 126, 126, 125, 125, 125, 125,
                                        125}));
  // All misses: the rest goes whole to the last request.
  EXPECT_EQ(chunk_values({false, false, false}, {10, 20, 30}, 100),
            (std::vector<std::uint64_t>{10, 20, 70}));
  // Mixed: misses keep their own, hits share the rest.
  EXPECT_EQ(chunk_values({false, true, false, true, true}, {40, 0, 25, 0, 0},
                         100),
            (std::vector<std::uint64_t>{40, 12, 25, 12, 11}));
  // rest < hits: the first `rest` hits take 1 ns, the others 0.
  EXPECT_EQ(chunk_values(std::vector<bool>(8, true),
                         std::vector<std::uint64_t>(8, 0), 5),
            (std::vector<std::uint64_t>{1, 1, 1, 1, 1, 0, 0, 0}));
  EXPECT_EQ(chunk_values({true, false, true, true}, {0, 97, 0, 0}, 99),
            (std::vector<std::uint64_t>{1, 97, 1, 0}));

  // Every hit pattern of chunks of 1 to 9 requests, at chunk times below,
  // at and above the hit count: the values sum to the chunk time.
  std::size_t chunks = 0;
  for (std::size_t n = 1; n <= 9; ++n) {
    for (std::uint32_t pattern = 0; pattern < (1u << n); ++pattern) {
      std::vector<bool> hit(n);
      std::vector<std::uint64_t> own(n, 0);
      std::uint64_t miss_ns = 0;
      for (std::size_t i = 0; i < n; ++i) {
        hit[i] = (pattern >> i & 1u) != 0;
        if (!hit[i]) own[i] = 3 + 7 * i;
        miss_ns += own[i];
      }
      for (const std::uint64_t rest : {0, 1, 2, 5, 8, 9, 1000, 123457}) {
        const std::uint64_t chunk_ns = miss_ns + rest;
        const auto values = chunk_values(hit, own, chunk_ns);
        ASSERT_EQ(sum(values), chunk_ns)
            << "n " << n << " pattern " << pattern << " rest " << rest;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          if (!hit[i]) {
            ASSERT_EQ(values[i], own[i]);
          }
        }
        ++chunks;
      }
    }
  }
  EXPECT_EQ(chunks, 1022u * 8);
}

TEST(ChunkSplitTest, MissesLongerThanTheChunkLeaveNothingToShare) {
  // The misses' own intervals are read inside the chunk's, so their sum
  // cannot exceed it; if a clock ever said so, the rest is 0, not a
  // wrapped-around share.
  EXPECT_EQ(chunk_values({true, false, true}, {0, 500, 0}, 400),
            (std::vector<std::uint64_t>{0, 500, 0}));
  EXPECT_EQ(chunk_values({false, false}, {300, 300}, 400),
            (std::vector<std::uint64_t>{300, 300}));
}

}  // namespace
}  // namespace lexfor::serve
