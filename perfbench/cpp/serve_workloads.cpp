// serve_hot and serve_cold: one connection to a default
// serve::VerdictServer, driven first closed loop (saturated throughput)
// and then open loop (Poisson arrivals at a fixed rate).
//
//   serve_hot   SyntheticFleet frames: 66 distinct scenarios behind a
//               million subscriber ids, so after warm-up every request is
//               a compact verdict-table hit.  The work is wire decode,
//               legal::fingerprint and the table lookup.
//   serve_cold  2^18 distinct ScenarioGen fact patterns, 4x the verdict
//               table's capacity, drawn uniformly: most requests miss both
//               caches and run the engine, the insert and the eviction.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/scenario_gen.h"
#include "legal/batch.h"
#include "legal/engine.h"
#include "measure.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace legal = lexfor::legal;
namespace serve = lexfor::serve;
namespace wire = lexfor::serve::wire;

constexpr std::size_t kClosedBatch = 256;  // requests per closed-loop call
constexpr std::size_t kWindowCalls = 32;   // calls per throughput window
// Offered open-loop rates: about a quarter (hot) and half (cold) of the
// closed-loop rate of a 4-vCPU Xeon VM in its slow state (about 550k/s and
// 80k/s; twice that when it runs fast), so the server is loaded but a slow
// stretch does not overload it.
constexpr double kHotRate = 150e3;
constexpr double kColdRate = 40e3;
constexpr unsigned kColdPoolBits = 18;
constexpr std::uint64_t kHotWarmup = 1 << 16;
// Half the pool: enough distinct scenarios to fill both 2^16-entry caches,
// so their hit ratio is at its steady state before timing starts.
constexpr std::uint64_t kColdWarmup = 1 << 17;
constexpr std::uint64_t kReplayRequests = 1 << 15;

// A verdict in one byte: needs_process, required process, required proof;
// kBadResponse marks a response that failed to decode or had the wrong id.
constexpr std::uint8_t kBadResponse = 0x80;

[[nodiscard]] std::uint8_t verdict_code(bool needs, legal::ProcessKind process,
                                        legal::StandardOfProof proof) {
  return static_cast<std::uint8_t>((needs ? 1 : 0) |
                                   (static_cast<unsigned>(process) << 1) |
                                   (static_cast<unsigned>(proof) << 4));
}

[[nodiscard]] std::uint8_t verdict_code(const legal::Determination& d) {
  return verdict_code(d.needs_process, d.required_process, d.required_proof);
}

// A workload's request stream.  Request `ordinal`'s frame, id and expected
// verdict are pure functions of the ordinal, so responses can be checked
// at any time after the call that carried them.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  // Appends the frames of requests [first, first + n) to `out`.
  virtual void append(std::uint64_t first, std::size_t n,
                      std::vector<std::uint8_t>& out) const = 0;
  [[nodiscard]] virtual std::uint64_t request_id(
      std::uint64_t ordinal) const = 0;
  // The oracle: ComplianceEngine::evaluate on the request's scenario,
  // computed once per distinct scenario.  Never called in a timed region.
  [[nodiscard]] virtual std::uint8_t expected(std::uint64_t ordinal) = 0;
};

class FleetSource final : public RequestSource {
 public:
  explicit FleetSource(std::uint64_t seed)
      : fleet_(serve::FleetOptions{seed}) {}

  void append(std::uint64_t first, std::size_t n,
              std::vector<std::uint8_t>& out) const override {
    const std::uint64_t size = fleet_.options().fleet_size;
    while (n > 0) {
      const std::uint64_t client = first % size;
      const std::uint64_t take = std::min<std::uint64_t>(n, size - client);
      fleet_.generate(first / size, client, take, out);
      first += take;
      n -= static_cast<std::size_t>(take);
    }
  }

  [[nodiscard]] std::uint64_t request_id(std::uint64_t ordinal) const override {
    const std::uint64_t size = fleet_.options().fleet_size;
    return serve::SyntheticFleet::request_id(ordinal / size, ordinal % size);
  }

  [[nodiscard]] std::uint8_t expected(std::uint64_t ordinal) override {
    const std::uint64_t size = fleet_.options().fleet_size;
    const legal::Scenario* s =
        &fleet_.scenario_for(ordinal / size, ordinal % size, 0);
    const auto it = oracle_.find(s);
    if (it != oracle_.end()) return it->second;
    const std::uint8_t code = verdict_code(engine_.evaluate(*s));
    oracle_.emplace(s, code);
    return code;
  }

 private:
  serve::SyntheticFleet fleet_;
  legal::ComplianceEngine engine_;
  // Keyed by the fleet's own scenario object: one entry per template.
  std::unordered_map<const legal::Scenario*, std::uint8_t> oracle_;
};

class PoolSource final : public RequestSource {
 public:
  explicit PoolSource(std::uint64_t seed) : seed_(seed) {
    lexfor::Rng rng(seed_);
    lexfor::check::ScenarioGen gen(rng);
    offsets_.reserve(kPoolSize + 1);
    offsets_.push_back(0);
    // encode_request reserves exactly one more frame per call, so frames
    // are encoded into a scratch buffer and appended with geometric growth.
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      // Distinct names make every pattern a distinct cache key.
      frame.clear();
      wire::encode_request(gen.generate("cold-" + std::to_string(i)), 0,
                           frame);
      frames_.insert(frames_.end(), frame.begin(), frame.end());
      offsets_.push_back(frames_.size());
    }
  }

  void append(std::uint64_t first, std::size_t n,
              std::vector<std::uint8_t>& out) const override {
    for (std::uint64_t o = first; o < first + n; ++o) {
      const std::size_t i = index_of(o);
      const std::size_t at = out.size();
      out.insert(out.end(), frames_.begin() + offsets_[i],
                 frames_.begin() + offsets_[i + 1]);
      for (std::size_t b = 0; b < 8; ++b) {
        out[at + wire::kRequestIdOffset + b] =
            static_cast<std::uint8_t>(o >> (8 * b));
      }
    }
  }

  [[nodiscard]] std::uint64_t request_id(std::uint64_t ordinal) const override {
    return ordinal;
  }

  [[nodiscard]] std::uint8_t expected(std::uint64_t ordinal) override {
    if (table_.empty()) {
      // Regenerates the pool's scenarios from the seed rather than
      // trusting anything the server decoded.
      lexfor::Rng rng(seed_);
      lexfor::check::ScenarioGen gen(rng);
      table_.reserve(kPoolSize);
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        table_.push_back(verdict_code(
            engine_.evaluate(gen.generate("cold-" + std::to_string(i)))));
      }
    }
    return table_[index_of(ordinal)];
  }

 private:
  static constexpr std::size_t kPoolSize = std::size_t{1} << kColdPoolBits;

  // Uniform draw from the pool, stateless in the ordinal.
  [[nodiscard]] std::size_t index_of(std::uint64_t ordinal) const {
    return static_cast<std::size_t>(mix64(seed_ ^ mix64(ordinal)) >>
                                    (64 - kColdPoolBits));
  }

  std::uint64_t seed_;
  std::vector<std::uint8_t> frames_;
  std::vector<std::size_t> offsets_;
  legal::ComplianceEngine engine_;
  std::vector<std::uint8_t> table_;
};

// Everything set-up builds: inputs, the server and its one connection.
struct Rig {
  std::unique_ptr<RequestSource> source;
  std::unique_ptr<serve::VerdictServer> server;
  std::optional<serve::Connection> conn;
  std::vector<std::uint8_t> frames;
  std::uint64_t next_ordinal = 0;
};

struct SteadyClock {
  [[nodiscard]] std::int64_t now() const noexcept { return now_ns(); }
  void wait_until(std::int64_t t) const noexcept {
    while (now_ns() < t) {
    }
  }
};

// Decodes one call's responses into verdict codes, checking each id.
void record_responses(Rig& rig, std::uint64_t first, std::size_t n,
                      std::vector<std::uint8_t>& codes) {
  const std::vector<std::uint8_t>& bytes = rig.conn->responses();
  const std::size_t got = bytes.size() / wire::kResponseFrameBytes;
  wire::Response r;
  for (std::size_t k = 0; k < n; ++k) {
    std::uint8_t code = kBadResponse;
    if (k < got &&
        wire::decode_response(
            std::span<const std::uint8_t>(
                bytes.data() + k * wire::kResponseFrameBytes,
                wire::kResponseFrameBytes),
            r)
            .ok() &&
        r.status == lexfor::StatusCode::kOk &&
        r.request_id == rig.source->request_id(first + k)) {
      code = verdict_code(r.needs_process, r.required_process,
                          r.required_proof);
    }
    codes.push_back(code);
  }
}

void check_codes(Rig& rig, std::uint64_t first,
                 const std::vector<std::uint8_t>& codes, Outcome& out) {
  for (std::size_t k = 0; k < codes.size(); ++k) {
    const std::uint64_t op = first + k;
    const std::uint8_t want = rig.source->expected(op);
    if (codes[k] == kBadResponse) {
      out.fail(op, "request shed, rejected or answered with a bad frame");
    } else if (codes[k] != want) {
      out.fail(op, "verdict code " + std::to_string(codes[k]) +
                       ", engine says " + std::to_string(want));
    }
  }
}

[[nodiscard]] std::unique_ptr<Rig> set_up(bool cold, std::uint64_t seed) {
  legal::shared_verdict_cache().clear();
  auto rig = std::make_unique<Rig>();
  if (cold) {
    rig->source = std::make_unique<PoolSource>(seed);
  } else {
    rig->source = std::make_unique<FleetSource>(seed);
  }
  rig->server = std::make_unique<serve::VerdictServer>();
  rig->conn.emplace(rig->server->connect());
  const std::uint64_t warmup = cold ? kColdWarmup : kHotWarmup;
  while (rig->next_ordinal < warmup) {
    rig->frames.clear();
    rig->source->append(rig->next_ordinal, kClosedBatch, rig->frames);
    (void)rig->server->serve(*rig->conn, rig->frames);
    rig->next_ordinal += kClosedBatch;
  }
  // One call at the admission bound, so the connection's request slots
  // and both frame buffers reach their largest size here and not during
  // whichever open-loop burst happens to be the largest.
  const std::size_t full = rig->server->options().queue_capacity;
  rig->frames.clear();
  rig->source->append(rig->next_ordinal, full, rig->frames);
  (void)rig->server->serve(*rig->conn, rig->frames);
  rig->next_ordinal += full;
  return rig;
}

struct ClosedLoop {
  std::vector<double> window_rates;  // requests per second inside serve()
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] double rate() const {
    return interquartile_mean(window_rates);
  }
};

// One client sends kClosedBatch requests, waits for the responses and
// checks them (outside the timed call) before sending the next batch.
// Throughput counts only time inside VerdictServer::serve, so the
// client's frame building is not read as server cost.  Appends to
// `result`; a window cut short by the end of the chunk is dropped.
void closed_loop(Rig& rig, double seconds, Outcome& out, Tracer* tracer,
                 ClosedLoop& result) {
  std::vector<std::uint8_t> codes;
  codes.reserve(kClosedBatch);
  std::uint64_t win_requests = 0;
  std::int64_t win_ns = 0;
  std::size_t win_calls = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t call = 0; now_ns() < end; ++call) {
    const std::uint64_t first = rig.next_ordinal;
    rig.next_ordinal += kClosedBatch;
    {
      const Tracer::Scope span(tracer, "client.generate", call);
      rig.frames.clear();
      rig.source->append(first, kClosedBatch, rig.frames);
    }
    serve::ServeStats stats;
    const std::int64_t t0 = now_ns();
    {
      const Tracer::Scope span(tracer, "serve", call);
      stats = rig.server->serve(*rig.conn, rig.frames);
    }
    const std::int64_t dt = now_ns() - t0;

    out.attempt(kClosedBatch);
    codes.clear();
    record_responses(rig, first, kClosedBatch, codes);
    check_codes(rig, first, codes, out);

    result.requests += kClosedBatch;
    result.hits += stats.cache_hits;
    result.misses += stats.cache_misses;
    win_requests += kClosedBatch;
    win_ns += dt;
    if (++win_calls == kWindowCalls) {
      result.window_rates.push_back(static_cast<double>(win_requests) * 1e9 /
                                    static_cast<double>(win_ns));
      win_requests = 0;
      win_ns = 0;
      win_calls = 0;
    }
  }
}

struct OpenLoop {
  std::vector<double> p50_us;  // per segment
  std::vector<double> p90_us;
  LogHistogram latency_ns;     // every segment's requests
  std::uint64_t requests = 0;
  std::uint64_t calls = 0;
  double wait_ns_sum = 0.0;
  std::int64_t max_lag_ns = 0;
};

// One open-loop segment of Poisson arrivals at `rate`, appended to
// `result`.  Segments are independent: each starts with an empty queue
// and its own schedule, so interference from outside the process spoils
// the percentiles of the segments it hits, not the run's figure.
// Responses are decoded after each call and checked against the oracle
// after the segment, when no request is waiting.
void open_loop(Rig& rig, double rate, double seconds, std::uint64_t seed,
               Outcome& out, Tracer* tracer, OpenLoop& result) {
  PoissonSchedule schedule(rate, mix64(seed) + result.p50_us.size());
  const std::uint64_t base = rig.next_ordinal;
  std::vector<std::uint8_t> codes;
  codes.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 1024);
  std::uint64_t first_of_call = 0;
  std::size_t n_of_call = 0;
  SteadyClock clock;
  const OpenLoopStats stats = run_open_loop(
      clock, static_cast<std::int64_t>(seconds * 1e9),
      rig.server->options().queue_capacity, [&] { return schedule.next(); },
      [&](std::uint64_t first, std::size_t n) {
        const Tracer::Scope span(tracer, "open.generate", result.calls);
        first_of_call = base + first;
        n_of_call = n;
        rig.frames.clear();
        rig.source->append(first_of_call, n, rig.frames);
      },
      [&] {
        const Tracer::Scope span(tracer, "open.serve", result.calls);
        (void)rig.server->serve(*rig.conn, rig.frames);
      },
      [&] {
        record_responses(rig, first_of_call, n_of_call, codes);
        ++result.calls;
      });
  rig.next_ordinal = base + stats.requests;
  out.attempt(stats.requests + stats.unsent);
  check_codes(rig, base, codes, out);
  for (std::uint64_t u = 0; u < stats.unsent; ++u) {
    out.fail(base + stats.requests + u, "due but never sent (overrun)");
  }
  result.p50_us.push_back(stats.latency_ns.percentile(50000) / 1e3);
  result.p90_us.push_back(stats.latency_ns.percentile(90000) / 1e3);
  result.latency_ns.merge(stats.latency_ns);
  result.requests += stats.requests;
  result.wait_ns_sum += stats.wait_ns_sum;
  result.max_lag_ns = std::max(result.max_lag_ns, stats.max_lag_ns);
}

// Layer replay: each public function of the verdict path called on its
// own over the workload's decoded inputs, one span per function per batch.
// Returns the number of requests replayed.
std::uint64_t layer_replay(Rig& rig, Tracer& tracer, Outcome& out) {
  std::uint64_t replayed = 0;
  const legal::ComplianceEngine engine;
  std::vector<wire::Request> requests(kClosedBatch);
  std::vector<legal::ScenarioFingerprint> prints(kClosedBatch);
  std::vector<std::uint8_t> direct(kClosedBatch);
  std::vector<std::uint8_t> cached(kClosedBatch);
  std::vector<std::uint8_t> encoded;
  encoded.reserve(kClosedBatch * wire::kResponseFrameBytes);
  std::uint8_t digest = 0;
  for (std::uint64_t batch = 0; batch < kReplayRequests / kClosedBatch;
       ++batch) {
    const std::uint64_t first = rig.next_ordinal;
    rig.next_ordinal += kClosedBatch;
    rig.frames.clear();
    rig.source->append(first, kClosedBatch, rig.frames);
    std::size_t decoded = 0;
    {
      const Tracer::Scope root(&tracer, "replay", batch);
      {
        const Tracer::Scope span(&tracer, "wire.decode", batch);
        std::span<const std::uint8_t> rest(rig.frames);
        while (!rest.empty() && decoded < kClosedBatch) {
          const auto info = wire::peek_frame(rest);
          if (!info.ok()) break;
          const std::size_t len = info.value().frame_len;
          if (wire::decode_request(rest.subspan(0, len), requests[decoded])
                  .ok()) {
            ++decoded;
          }
          rest = rest.subspan(len);
        }
      }
      {
        const Tracer::Scope span(&tracer, "legal.fingerprint", batch);
        for (std::size_t k = 0; k < decoded; ++k) {
          prints[k] = legal::fingerprint(requests[k].scenario);
        }
      }
      {
        const Tracer::Scope span(&tracer, "legal.evaluate", batch);
        for (std::size_t k = 0; k < decoded; ++k) {
          direct[k] = verdict_code(engine.evaluate(requests[k].scenario));
        }
      }
      {
        const Tracer::Scope span(&tracer, "legal.cached_evaluate", batch);
        for (std::size_t k = 0; k < decoded; ++k) {
          cached[k] = verdict_code(
              rig.server->evaluator().evaluate(requests[k].scenario));
        }
      }
      {
        const Tracer::Scope span(&tracer, "wire.encode", batch);
        encoded.clear();
        wire::Response r;
        for (std::size_t k = 0; k < decoded; ++k) {
          r.request_id = requests[k].request_id;
          r.needs_process = (direct[k] & 1) != 0;
          r.required_process =
              static_cast<legal::ProcessKind>((direct[k] >> 1) & 7);
          r.required_proof =
              static_cast<legal::StandardOfProof>((direct[k] >> 4) & 7);
          wire::encode_response(r, encoded);
        }
      }
    }
    out.attempt(kClosedBatch);
    for (std::size_t k = 0; k < kClosedBatch; ++k) {
      const std::uint64_t op = first + k;
      if (k >= decoded) {
        out.fail(op, "replayed frame failed to decode");
        continue;
      }
      digest ^= prints[k][0];
      const std::uint8_t want = rig.source->expected(op);
      if (direct[k] != want || cached[k] != want) {
        out.fail(op, "replayed verdict differs from the oracle");
      }
    }
    if (encoded.size() != decoded * wire::kResponseFrameBytes) {
      out.fail(first, "replayed encode wrote the wrong number of bytes");
    }
    replayed += decoded;
  }
  std::printf("layer replay: %llu requests in batches of %zu (digest %02x)\n",
              static_cast<unsigned long long>(replayed), kClosedBatch, digest);
  return replayed;
}

void print_percentiles(const char* what, const LogHistogram& h) {
  const std::uint32_t top = highest_reportable_percentile(h.count());
  std::printf(
      "%s: p50 %.3f us, p90 %.3f us, p99 %.3f us (n=%llu); highest "
      "percentile with >= 10 samples beyond it: p%.3f = %.3f us\n",
      what, h.percentile(50000) / 1e3, h.percentile(90000) / 1e3,
      h.percentile(99000) / 1e3, static_cast<unsigned long long>(h.count()),
      top / 1000.0, h.percentile(top) / 1e3);
}

}  // namespace

void run_serve(const RunOptions& options, bool cold, Outcome& out) {
  const double rate = cold ? kColdRate : kHotRate;
  const double s = options.seconds;

  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = set_up(cold, options.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::printf("server: %u worker(s), queue capacity %zu, verdict table %zu\n",
              rig->server->workers(), rig->server->options().queue_capacity,
              rig->server->options().verdict_table_capacity);
  // The oracle's one-off cost is paid here, outside every timed region.
  (void)rig->source->expected(0);

  if (!options.trace) {
    // Rounds of about a second, each a closed-loop chunk then an open-loop
    // segment, so both figures are taken over the whole run and a stretch
    // of interference from outside the process touches a minority of
    // windows and segments.
    const long rounds = std::max<long>(1, std::lround(s));
    ClosedLoop closed;
    OpenLoop open;
    for (long r = 0; r < rounds; ++r) {
      closed_loop(*rig, 0.4 * s / rounds, out, nullptr, closed);
      open_loop(*rig, rate, 0.6 * s / rounds, options.seed, out, nullptr,
                open);
    }
    const double lookups = static_cast<double>(closed.hits + closed.misses);
    std::printf(
        "closed loop: verdicts_per_s %.0f (interquartile mean of %zu windows "
        "of %zu requests; %llu requests; cache hit ratio %.4f of %.0f "
        "lookups)\n",
        closed.rate(), closed.window_rates.size(), kWindowCalls * kClosedBatch,
        static_cast<unsigned long long>(closed.requests),
        lookups > 0 ? static_cast<double>(closed.hits) / lookups : 0.0,
        lookups);
    std::printf(
        "open loop at %.0f/s: %llu requests in %llu calls over %zu segments, "
        "generator lag mean %.3f us max %.3f us\n",
        rate, static_cast<unsigned long long>(open.requests),
        static_cast<unsigned long long>(open.calls), open.p50_us.size(),
        open.requests ? open.wait_ns_sum / open.requests / 1e3 : 0.0,
        open.max_lag_ns / 1e3);
    print_percentiles("open-loop verdict latency from due time, all segments",
                      open.latency_ns);
    std::printf("verdict_p50_us %.4f, verdict_p90_us %.4f (interquartile "
                "means over segments)\n",
                interquartile_mean(open.p50_us),
                interquartile_mean(open.p90_us));
    out.metrics["setup_s"] = median(setups);
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    out.metrics["throughput_per_s"] = closed.rate();
    out.metrics["latency_p50_us"] = interquartile_mean(open.p50_us);
    return;
  }

  Tracer tracer;
  ClosedLoop plain;
  ClosedLoop traced;
  OpenLoop open;
  closed_loop(*rig, 0.3 * s, out, nullptr, plain);
  closed_loop(*rig, 0.3 * s, out, &tracer, traced);
  open_loop(*rig, rate, 0.05 * s, options.seed, out, &tracer, open);
  const auto replayed = static_cast<double>(layer_replay(*rig, tracer, out));

  const auto layers = totals_by_name(tracer.spans());
  const auto per_request = [&](const char* name, double n) {
    const auto it = layers.find(name);
    return it == layers.end() || n == 0
               ? 0.0
               : static_cast<double>(it->second.self_ns) / n;
  };
  const double lookups = static_cast<double>(traced.hits + traced.misses);
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(traced.hits) / lookups : 0.0;
  const double serve_ns =
      per_request("serve", static_cast<double>(traced.requests));
  auto& m = out.metrics;
  m["serve.serve_ns"] = serve_ns;
  m["serve.wait_us"] =
      open.requests
          ? open.wait_ns_sum / static_cast<double>(open.requests) / 1e3
          : 0.0;
  m["serve.batch_requests"] =
      open.calls ? static_cast<double>(open.requests) /
                       static_cast<double>(open.calls)
                 : 0.0;
  m["serve.cache_hit_ratio"] = hit_ratio;
  m["serve.cache_lookups"] = lookups;
  m["client.generate_ns"] =
      per_request("client.generate", static_cast<double>(traced.requests));
  m["wire.decode_ns"] = per_request("wire.decode", replayed);
  m["legal.fingerprint_ns"] = per_request("legal.fingerprint", replayed);
  m["legal.evaluate_ns"] = per_request("legal.evaluate", replayed);
  m["legal.cached_evaluate_ns"] =
      per_request("legal.cached_evaluate", replayed);
  m["wire.encode_ns"] = per_request("wire.encode", replayed);
  // The replayed layers weighted by how often the server runs them: every
  // request is decoded, fingerprinted and encoded; only table misses go
  // through BatchEvaluator::evaluate.
  m["serve.coverage"] =
      serve_ns > 0
          ? (m["wire.decode_ns"] + m["legal.fingerprint_ns"] +
             (1.0 - hit_ratio) * m["legal.cached_evaluate_ns"] +
             m["wire.encode_ns"]) /
                serve_ns
          : 0.0;
  m["trace.overhead"] = traced.rate() > 0 ? plain.rate() / traced.rate() : 0.0;
  std::printf(
      "traced: closed loop %llu requests (untraced %.0f/s, traced %.0f/s), "
      "open loop %llu requests in %llu calls, %zu spans\n",
      static_cast<unsigned long long>(traced.requests), plain.rate(),
      traced.rate(), static_cast<unsigned long long>(open.requests),
      static_cast<unsigned long long>(open.calls), tracer.spans().size());
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    out.fail(0, "could not write spans to " + options.trace_out);
  }
}

}  // namespace perfbench
