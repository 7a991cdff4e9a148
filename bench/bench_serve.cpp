// Experiment A-SERVE: the verdict server under a million-subscriber
// synthetic fleet.
//
// Self-verifying, like A-STREAM: the bench exits non-zero unless
//   (1) server verdicts are bit-identical (on every wire-carried
//       field) to direct legal::BatchEvaluator evaluation, at every
//       worker count,
//   (2) admission accounting is EXACT under forced overload, with
//       malformed and version-skewed frames injected into the flood:
//       accepted + shed_queue_full + rejected_malformed +
//       rejected_version == offered,
//   (3) the steady state is flat: after a warm-up batch, the
//       connection's slot/response capacities never move, and — on
//       the workers==1 inline path — a batch performs ZERO heap
//       allocations on the serving thread (a global operator new
//       override counts them per thread and process-wide); fan-out
//       batches stay under a fixed bound, counted process-wide,
//   (4) the serve.request_latency_ns histogram carries the samples the
//       throughput run produced (count == verdicts served).
// It reports verdicts/s (served verdicts over the time inside serve(),
// frame generation excluded) and p50/p95/p99 per worker count, and the
// verdict-table probe's ns per lookup in fleet order and on one key, as
// A-SERVE-METRIC lines for tools/bench_diff.py.  The percentiles are of
// the responses' server_ns, where a table hit carries an even share of
// its evaluation chunk's time, not an interval of its own.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "legal/batch.h"
#include "obs/obs.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/verdict_table.h"
#include "serve/wire.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

}  // namespace

// Counting overrides: every heap allocation in the process ticks
// g_allocs, and t_allocs of the thread that made it.  The steady-state
// gate reads the counters around a batch.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using lexfor::legal::BatchEvaluator;
using lexfor::legal::BatchOptions;
using lexfor::legal::Determination;
using lexfor::legal::FactKey;
using lexfor::serve::CompactVerdict;
using lexfor::serve::Connection;
using lexfor::serve::FleetOptions;
using lexfor::serve::ServeStats;
using lexfor::serve::ServerOptions;
using lexfor::serve::SyntheticFleet;
using lexfor::serve::VerdictServer;
using lexfor::serve::VerdictTable;
namespace wire = lexfor::serve::wire;

using clock_type = std::chrono::steady_clock;

std::vector<wire::Response> decode_all(std::span<const std::uint8_t> buf) {
  std::vector<wire::Response> out;
  while (!buf.empty()) {
    const auto info = wire::peek_frame(buf);
    if (!info.ok()) break;
    wire::Response r;
    if (!wire::decode_response(buf.subspan(0, info.value().frame_len), r)
             .ok()) {
      break;
    }
    out.push_back(r);
    buf = buf.subspan(info.value().frame_len);
  }
  return out;
}

ServerOptions server_options(unsigned workers) {
  ServerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 16384;
  opts.batch.use_shared_cache = false;
  return opts;
}

}  // namespace

int main() {
  std::printf("A-SERVE: verdict server vs direct evaluator, "
              "million-subscriber fleet\n\n");

  // Gate 1: verdict parity with the direct evaluator at every worker
  // count.  The fleet oracle says what each client asked; the direct
  // evaluator says what the answer must be.
  {
    FleetOptions fopts;
    fopts.fleet_size = 4096;
    const SyntheticFleet fleet(fopts);
    std::vector<std::uint8_t> wave;
    wave.reserve(fleet.max_bytes_per_client() * fopts.fleet_size);
    fleet.generate_wave(1, wave);

    BatchEvaluator direct(BatchOptions{.use_shared_cache = false});
    std::uint64_t mismatches = 0;
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      VerdictServer server(server_options(workers));
      Connection conn = server.connect();
      const ServeStats stats = server.serve(conn, wave);
      const auto responses = decode_all(conn.responses());
      if (stats.accepted != fopts.fleet_size ||
          responses.size() != fopts.fleet_size) {
        ++mismatches;
        continue;
      }
      for (std::uint64_t c = 0; c < fopts.fleet_size; ++c) {
        const Determination d = direct.evaluate(fleet.scenario_for(1, c, 0));
        const wire::Response& r = responses[c];
        if (r.request_id != SyntheticFleet::request_id(1, c) ||
            r.needs_process != d.needs_process ||
            r.required_process != d.required_process ||
            r.required_proof != d.required_proof) {
          ++mismatches;
        }
      }
      std::printf("verdict parity @ %u workers: %s\n", workers,
                  mismatches == 0 ? "identical" : "DIVERGED");
    }
    if (mismatches != 0) {
      std::printf("A-SERVE FAILED: server verdicts diverged from the "
                  "direct evaluator\n");
      return 1;
    }
  }

  // Gate 2: exact admission accounting under forced overload, garbage
  // included.  A wave 4x the queue bound, with every 17th frame
  // version-skewed and every 23rd malformed.
  {
    FleetOptions fopts;
    fopts.fleet_size = 8192;
    const SyntheticFleet fleet(fopts);
    std::vector<std::uint8_t> wave;
    fleet.generate_wave(2, wave);

    // Corrupt in place: walk frames, poison selected ones.
    std::uint64_t skewed = 0, mangled = 0, index = 0;
    std::size_t at = 0;
    while (at < wave.size()) {
      const auto info = wire::peek_frame(
          std::span<const std::uint8_t>(wave).subspan(at));
      if (!info.ok()) break;
      if (index % 17 == 0) {
        wave[at + 4] = wire::kWireVersion + 1;
        ++skewed;
      } else if (index % 23 == 0) {
        wave[at + 6] = 0xFF;  // reserved byte: malformed payload
        ++mangled;
      }
      at += info.value().frame_len;
      ++index;
    }

    ServerOptions opts = server_options(2);
    opts.queue_capacity = 2048;
    VerdictServer server(opts);
    Connection conn = server.connect();
    const ServeStats s = server.serve(conn, wave);

    std::printf("\noverload accounting: offered=%llu accepted=%llu "
                "shed=%llu malformed=%llu version=%llu\n",
                static_cast<unsigned long long>(s.offered),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.shed_queue_full),
                static_cast<unsigned long long>(s.rejected_malformed),
                static_cast<unsigned long long>(s.rejected_version));
    const bool exact =
        s.balanced() && s.offered == fopts.fleet_size &&
        s.accepted == opts.queue_capacity &&
        s.rejected_version == skewed && s.rejected_malformed == mangled &&
        s.shed_queue_full ==
            fopts.fleet_size - opts.queue_capacity - skewed - mangled &&
        s.responses == s.accepted &&
        decode_all(conn.responses()).size() == s.accepted;
    if (!exact) {
      std::printf("A-SERVE FAILED: admission accounting not exact under "
                  "overload\n");
      return 1;
    }
    std::printf("accepted + shed + malformed + version == offered: exact\n");
  }

  // Gate 3: flat, zero-alloc steady state.
  {
    FleetOptions fopts;
    fopts.fleet_size = 4096;
    const SyntheticFleet fleet(fopts);
    std::vector<std::uint8_t> wave;
    fleet.generate_wave(3, wave);

    std::printf("\n%8s %14s\n", "workers", "allocs/batch");
    bool flat = true;
    std::uint64_t inline_allocs = 0;
    for (const unsigned workers : {1u, 4u}) {
      VerdictServer server(server_options(workers));
      Connection conn = server.connect();
      // Two warm-up batches: grow capacities, warm the verdict table.
      server.serve(conn, wave);
      server.serve(conn, wave);
      const std::size_t slot_cap = conn.slot_capacity();
      const std::size_t resp_cap = conn.response_capacity();

      // The inline path is gated on the serving thread's own count:
      // the process-wide pool's workers, started by gate 1, are other
      // threads, and a worker registers its obs ring shard (3
      // allocations) on its first traced event.  Fan-out batches
      // allocate on the workers too, so they are counted process-wide.
      const auto allocs = [workers] {
        return workers == 1 ? t_allocs
                            : g_allocs.load(std::memory_order_relaxed);
      };
      std::uint64_t max_batch_allocs = 0;
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t before = allocs();
        server.serve(conn, wave);
        const std::uint64_t batch_allocs = allocs() - before;
        max_batch_allocs =
            batch_allocs > max_batch_allocs ? batch_allocs : max_batch_allocs;
      }
      flat = flat && conn.slot_capacity() == slot_cap &&
             conn.response_capacity() == resp_cap;
      std::printf("%8u %14llu\n", workers,
                  static_cast<unsigned long long>(max_batch_allocs));
      if (workers == 1) {
        inline_allocs = max_batch_allocs;
      } else {
        // A fan-out batch queues one pool entry and allocates nothing
        // per chunk, so the fixed bound below has ample room.
        const std::uint64_t chunk_count =
            (fopts.fleet_size + 512 - 1) / 512;
        if (max_batch_allocs > 8 * chunk_count + 64) flat = false;
      }
    }
    std::printf("A-SERVE-METRIC steady_state_allocs_per_batch %llu\n",
                static_cast<unsigned long long>(inline_allocs));
    if (inline_allocs != 0) {
      std::printf("A-SERVE FAILED: workers==1 steady-state batch "
                  "allocated on the serving thread\n");
      return 1;
    }
    if (!flat) {
      std::printf("A-SERVE FAILED: connection footprint grew after "
                  "warm-up\n");
      return 1;
    }
    std::printf("steady state: zero allocs on the serving thread inline, "
                "footprint flat\n");
  }

  // Throughput + latency: a million subscribers served in bounded
  // batches, per worker count.  Gate 4: the latency histogram saw
  // every verdict.
  {
    constexpr std::uint64_t kFleetSize = 1'000'000;
    constexpr std::uint64_t kBatchClients = 8192;
    FleetOptions fopts;
    fopts.fleet_size = kFleetSize;
    const SyntheticFleet fleet(fopts);

    std::printf("\n%8s %14s %12s %12s %12s\n", "workers", "verdicts/s",
                "p50 ns", "p95 ns", "p99 ns");
    bool histogram_ok = true;
    for (const unsigned workers : {1u, 4u}) {
      auto& hist =
          lexfor::obs::metrics().histogram("serve.request_latency_ns");
      hist.reset();

      VerdictServer server(server_options(workers));
      Connection conn = server.connect();
      std::vector<std::uint8_t> batch;
      batch.reserve(fleet.max_bytes_per_client() * kBatchClients);

      // Warm the verdict table so the run measures steady state.
      batch.clear();
      fleet.generate(0, 0, kBatchClients, batch);
      server.serve(conn, batch);
      hist.reset();

      // Only the serve() calls are timed: the fleet's frame generation
      // runs on this thread too, and would otherwise be charged to the
      // server and hide how the fan-out scales.
      std::uint64_t served = 0;
      clock_type::duration serving{};
      for (std::uint64_t first = 0; first < kFleetSize;
           first += kBatchClients) {
        const std::uint64_t count =
            first + kBatchClients <= kFleetSize ? kBatchClients
                                                : kFleetSize - first;
        batch.clear();
        fleet.generate(0, first, count, batch);
        const auto t0 = clock_type::now();
        served += server.serve(conn, batch).responses;
        serving += clock_type::now() - t0;
      }
      const double secs = std::chrono::duration<double>(serving).count();
      const double rate = static_cast<double>(served) / secs;
      const double p50 = hist.percentile(50);
      const double p95 = hist.percentile(95);
      const double p99 = hist.percentile(99);
      std::printf("%8u %14.0f %12.0f %12.0f %12.0f\n", workers, rate, p50,
                  p95, p99);
      std::printf("A-SERVE-METRIC verdicts_per_sec_w%u %.0f\n", workers,
                  rate);
      std::printf("A-SERVE-METRIC p99_ns_w%u %.0f\n", workers, p99);
      if (served != kFleetSize || hist.count() != served) {
        histogram_ok = false;
      }
    }
    if (!histogram_ok) {
      std::printf("A-SERVE FAILED: latency histogram lost verdicts\n");
      return 1;
    }
  }

  // The verdict-table probe as a layer number, reported and not gated:
  // VerdictTable::get over the keys of 2^16 fleet frames in subscriber
  // order, where the way that matches changes from one lookup to the
  // next, then as many lookups of one repeated key, whose way never
  // changes.  The gap between the two is what the probe pays for a way
  // the branch predictor cannot guess.  Each figure is the best of 9
  // passes, in ns per lookup.
  {
    constexpr std::uint64_t kProbeKeys = 1 << 16;
    const SyntheticFleet fleet;
    std::vector<std::uint8_t> frames;
    fleet.generate(0, 0, kProbeKeys, frames);
    std::vector<FactKey> fleet_order;
    for (std::span<const std::uint8_t> rest = frames; !rest.empty();) {
      const std::size_t len = wire::peek_frame(rest).value().frame_len;
      std::uint64_t id = 0;
      FactKey key;
      if (!wire::key_request(rest.subspan(0, len), id, key).ok()) break;
      fleet_order.push_back(key);
      rest = rest.subspan(len);
    }
    VerdictTable table(ServerOptions{}.verdict_table_capacity);
    for (const FactKey key : fleet_order) table.put(key, CompactVerdict{});
    const std::vector<FactKey> one_key(fleet_order.size(), fleet_order[0]);

    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    const auto probe_ns = [&](const std::vector<FactKey>& keys) {
      double best = 0;
      for (int pass = 0; pass < 9; ++pass) {
        const auto t0 = clock_type::now();
        for (const FactKey key : keys) {
          hits += table.get(key).has_value() ? 1 : 0;
        }
        const double ns =
            std::chrono::duration<double, std::nano>(clock_type::now() - t0)
                .count() /
            static_cast<double>(keys.size());
        best = pass == 0 ? ns : std::min(best, ns);
        lookups += keys.size();
      }
      return best;
    };
    const double fleet_ns = probe_ns(fleet_order);
    const double one_ns = probe_ns(one_key);
    std::printf("\ntable probe: %.2f ns fleet order, %.2f ns one key "
                "(%llu of %llu lookups hit)\n",
                fleet_ns, one_ns, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(lookups));
    std::printf("A-SERVE-METRIC table_probe_ns_fleet_order %.2f\n", fleet_ns);
    std::printf("A-SERVE-METRIC table_probe_ns_one_key %.2f\n", one_ns);
  }

  std::printf("\nA-SERVE OK: verdict parity, exact overload accounting, "
              "zero-alloc steady state, histogram complete\n");
  return 0;
}
