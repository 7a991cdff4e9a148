#include "serve/server.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace lexfor::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint32_t clamp_ns(std::uint64_t ns) noexcept {
  constexpr std::uint64_t kMax = 0xFFFFFFFF;
  return static_cast<std::uint32_t>(ns < kMax ? ns : kMax);
}

[[nodiscard]] std::uint64_t elapsed_ns(Clock::time_point from,
                                       Clock::time_point to) noexcept {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns);
}

}  // namespace

Connection::Connection(std::size_t queue_capacity) {
  slots_.reserve(queue_capacity);
  // Pre-size the response buffer for a full batch so the first serve
  // of a warmed connection is already allocation-flat.
  responses_.reserve(queue_capacity * wire::kResponseFrameBytes);
}

VerdictServer::VerdictServer(ServerOptions options)
    : options_(options),
      batch_(options.batch),
      table_(options.verdict_table_capacity) {
  options_.workers = util::resolve_width(options_.workers);
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Connection VerdictServer::connect() const {
  return Connection(options_.queue_capacity);
}

void VerdictServer::evaluate_range(Connection& conn, std::size_t begin,
                                   std::size_t end) const {
  // The clock is read at the chunk's two ends and around each miss, never
  // for a hit (what server_ns covers is documented at serve()).
  const auto start = Clock::now();
  std::uint64_t miss_ns = 0;
  std::size_t hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    Connection::Slot& slot = conn.slots_[i];
    if (const auto hit = table_.get(slot.key)) {
      slot.verdict = *hit;
      slot.cache_hit = true;
      ++hits;
      continue;
    }
    // Miss: decode the frame admission keyed (it passed the same checks
    // there, so this succeeds) and derive through the BatchEvaluator so
    // the full Determination lands in the shared verdict cache too.
    const auto miss_start = Clock::now();
    (void)wire::decode_request(slot.frame, slot.request);
    const legal::Determination d = batch_.evaluate(slot.request.scenario);
    slot.verdict.needs_process = d.needs_process ? 1 : 0;
    slot.verdict.required_process =
        static_cast<std::uint8_t>(d.required_process);
    slot.verdict.required_proof = static_cast<std::uint8_t>(d.required_proof);
    slot.cache_hit = false;
    table_.put(slot.key, slot.verdict);
    slot.server_ns = clamp_ns(elapsed_ns(miss_start, Clock::now()));
    miss_ns += slot.server_ns;
  }
  // The rest of the chunk's time goes to its hits (split_chunk_ns), so
  // the chunk's values add up to its time.
  const std::uint64_t chunk_ns = elapsed_ns(start, Clock::now());
  const ChunkSplit split = split_chunk_ns(chunk_ns, miss_ns, hits);
  if (hits == 0) {
    Connection::Slot& last = conn.slots_[end - 1];
    last.server_ns = clamp_ns(last.server_ns + split.last_extra_ns);
  }
  const std::uint64_t share = split.hit_ns;
  std::uint64_t longer = split.longer_hits;
  LEXFOR_OBS_HISTOGRAM_BATCH(latency, "serve.request_latency_ns");
  for (std::size_t i = begin; i < end; ++i) {
    Connection::Slot& slot = conn.slots_[i];
    if (slot.cache_hit) {
      slot.server_ns = clamp_ns(share + (longer != 0 ? 1 : 0));
      if (longer != 0) --longer;
    }
    LEXFOR_OBS_HISTOGRAM_BATCH_RECORD(latency, slot.server_ns);
  }
}

ServeStats VerdictServer::serve(Connection& conn,
                                std::span<const std::uint8_t> frames) {
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "serve", "serve_batch",
                  std::to_string(frames.size()) + " bytes",
                  obs::no_sim_time());
  ServeStats stats;
  conn.responses_.clear();

  // --- Admission: walk the frame stream, classify and key every frame.
  // slots_ is recycled: its Requests keep their string capacity, and
  // growth only happens until the connection has seen a full batch
  // once.
  std::size_t accepted = 0;
  bool overload_reported = false;
  std::span<const std::uint8_t> rest = frames;
  while (!rest.empty()) {
    const auto info = wire::peek_frame(rest);
    if (!info.ok()) {
      // Framing lost: the rest of the buffer cannot be navigated.
      // One malformed frame is charged for the unparseable tail.
      ++stats.offered;
      ++stats.rejected_malformed;
      break;
    }
    const std::span<const std::uint8_t> frame =
        rest.subspan(0, info.value().frame_len);
    rest = rest.subspan(info.value().frame_len);
    ++stats.offered;

    if (accepted >= options_.queue_capacity) {
      // Shed path: still classify (keying is allocation-free) so
      // garbage offered during overload is not counted as load.
      std::uint64_t id = 0;
      legal::FactKey key;
      const Status v = wire::key_request(frame, id, key);
      if (v.ok()) {
        ++stats.shed_queue_full;
        if (!overload_reported) {
          overload_reported = true;
          LEXFOR_OBS_EVENT(obs::Level::kError, "serve", "overload",
                           "queue full, shedding", obs::no_sim_time());
        }
      } else if (v.code() == StatusCode::kFailedPrecondition) {
        ++stats.rejected_version;
      } else {
        ++stats.rejected_malformed;
      }
      continue;
    }

    if (accepted == conn.slots_.size()) conn.slots_.emplace_back();
    Connection::Slot& slot = conn.slots_[accepted];
    const Status s = wire::key_request(frame, slot.request_id, slot.key);
    if (s.ok()) {
      slot.frame = frame;
      ++accepted;
      ++stats.accepted;
    } else if (s.code() == StatusCode::kFailedPrecondition) {
      ++stats.rejected_version;
    } else {
      ++stats.rejected_malformed;
    }
  }

  // --- Evaluation fan-out. ------------------------------------------
  // A few chunks per thread, as in BatchEvaluator::evaluate_batch.  At
  // one worker the chunks run inline: strictly zero heap traffic in
  // steady state (the A-SERVE zero-allocation gate runs here).
  const unsigned width = options_.workers;
  const std::size_t grain =
      std::max<std::size_t>(1, accepted / (std::size_t{width} * 8));
  util::parallel_for(
      (accepted + grain - 1) / grain, width, [&](std::size_t chunk) {
        const std::size_t begin = chunk * grain;
        evaluate_range(conn, begin, std::min(begin + grain, accepted));
      });

  // --- Responses, in request order. ---------------------------------
  wire::Response resp;
  for (std::size_t i = 0; i < accepted; ++i) {
    const Connection::Slot& slot = conn.slots_[i];
    resp.request_id = slot.request_id;
    resp.status = StatusCode::kOk;
    resp.needs_process = slot.verdict.needs_process != 0;
    resp.cache_hit = slot.cache_hit;
    resp.required_process =
        static_cast<legal::ProcessKind>(slot.verdict.required_process);
    resp.required_proof =
        static_cast<legal::StandardOfProof>(slot.verdict.required_proof);
    resp.server_ns = slot.server_ns;
    wire::encode_response(resp, conn.responses_);
    if (slot.cache_hit) {
      ++stats.cache_hits;
    } else {
      ++stats.cache_misses;
    }
  }
  stats.responses = accepted;
  ++conn.batches_served_;

  // --- Accounting + obs. --------------------------------------------
  if (!stats.balanced()) {
    // This cannot happen by construction; if it ever does, the serving
    // layer's audit story is broken and the flight recorder should
    // capture the window.
    LEXFOR_OBS_EVENT(obs::Level::kError, "serve", "accounting_broken",
                     "admission counters do not balance",
                     obs::no_sim_time());
  }
  LEXFOR_OBS_COUNTER_ADD("serve.requests", stats.offered);
  LEXFOR_OBS_COUNTER_ADD("serve.responses", stats.responses);
  if (stats.shed_queue_full != 0) {
    LEXFOR_OBS_COUNTER_ADD("serve.sheds", stats.shed_queue_full);
  }
  if (stats.rejected_malformed != 0) {
    LEXFOR_OBS_COUNTER_ADD("serve.rejected_malformed",
                           stats.rejected_malformed);
  }
  if (stats.rejected_version != 0) {
    LEXFOR_OBS_COUNTER_ADD("serve.rejected_version", stats.rejected_version);
  }
  if (stats.cache_hits != 0) {
    LEXFOR_OBS_COUNTER_ADD("serve.cache_hits", stats.cache_hits);
  }
  if (stats.cache_misses != 0) {
    LEXFOR_OBS_COUNTER_ADD("serve.cache_misses", stats.cache_misses);
  }

  return stats;
}

}  // namespace lexfor::serve
