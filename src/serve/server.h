// serve::VerdictServer — compliance-as-a-service in front of the legal
// engine.
//
// The paper's claim is that a legality check must sit in front of every
// acquisition; at ISP/provider scale that check is a service queried at
// traffic rates, not a library call.  VerdictServer is that service
// shape: request frames (serve::wire) arrive on a Connection, pass a
// BOUNDED admission stage that keys each frame, fan out through
// util::parallel_for, are answered from the compact verdict table or,
// on a miss, through legal::BatchEvaluator's shared verdict cache, and
// leave as response frames in request order.
//
// Admission taxonomy (modeled on stream::RateRing's exhaustive drop
// classification): every offered frame lands in exactly one of
//
//   accepted           keyed and queued; ALWAYS answered
//   shed_queue_full    well-formed but past the batch's queue bound
//   rejected_malformed fails strict wire validation
//   rejected_version   header parses but the version byte is unknown
//
// and accepted + shed_queue_full + rejected_malformed +
// rejected_version == offered holds exactly, under any overload — the
// same audit posture the tap ring takes: a server that silently drops
// verdict queries is a compliance hole, not a performance bug.
// Classification happens even for shed frames, through the same
// allocation-free wire::key_request that admits them, so garbage
// offered during overload is still counted as garbage, not as load.
//
// Admission keys frames, it does not decode them: wire::key_request
// runs the strict decoder's checks and packs the legal::FactKey from
// the frame's enum bytes, flag word and jurisdiction bytes, and the
// slot keeps the request id, the key and where the frame lies in the
// batch.  A verdict-table hit never builds a Scenario; only a miss
// decodes the frame, into the slot's recycled Request, and runs
// BatchEvaluator::evaluate, which keeps the shared Determination cache
// coherent for the linter and Investigation::acquire.
//
// Zero-alloc steady state: each Connection owns a recycled slot vector
// (one slot per accepted request: id, key and frame extent, the
// verdict, hit flag and server_ns its response carries, and a Request
// that keeps its string capacity for misses) and a response buffer
// that keeps its bytes.  Once the fleet's scenario mix is warm in the
// compact verdict table, a batch performs no heap traffic at all on the
// single-worker inline path (gated by A-SERVE).
//
// The compact verdict table (serve/verdict_table.h) is the serving
// layer's own cache, in front of the shared Determination cache: one
// 64-bit word per entry holding the fact key and a 7-bit verdict, in
// sets of a few ways.  A hit is a few relaxed loads and a full-key
// compare, with no lock and no shared write, so workers do not contend
// on it; a miss inserts under one mutex.  The key leaves the name out,
// so requests that differ only in name share one entry.
//
// Backpressure reaches the worker pool too: a batch is at most
// queue_capacity requests, and its fan-out asks the process-wide pool
// for at most workers - 1 helpers, with the serving thread claiming
// chunks alongside them.  Accepted work is never lost, and no batch
// can queue more than one entry on the pool.
//
// Obs: serve.requests / serve.sheds / serve.rejected_malformed /
// serve.rejected_version / serve.responses / serve.cache_{hits,misses}
// counters, the serve.request_latency_ns histogram (p50/p95/p99) of the
// responses' server_ns values, a kError overload event on the first
// shed of a batch (flight-recorder dump when armed), and a kError +
// flight dump if the admission invariant ever breaks.  The latency
// samples stay in a chunk-local obs::Histogram::Batch and reach the
// histogram once per evaluation chunk, so no request writes a shared
// histogram line; with LEXFOR_OBS=OFF the recorder compiles out and
// server_ns is still measured.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "legal/batch.h"
#include "serve/verdict_table.h"
#include "serve/wire.h"

namespace lexfor::serve {

// One offered frame's fate; see the taxonomy above.
enum class Admission : std::uint8_t {
  kAccepted,
  kShedQueueFull,
  kRejectedMalformed,
  kRejectedVersion,
};

// One batch's admission accounting; callers that want totals sum these.
struct ServeStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_version = 0;
  std::uint64_t responses = 0;       // == accepted, always
  std::uint64_t cache_hits = 0;      // compact verdict-table hits
  std::uint64_t cache_misses = 0;    // engine evaluations

  [[nodiscard]] bool balanced() const noexcept {
    return accepted + shed_queue_full + rejected_malformed +
               rejected_version ==
           offered;
  }
};

struct ServerOptions {
  // The evaluation fan-out's width (util::parallel_for); 0 = one per
  // hardware thread.  1 serves inline with zero dispatch overhead.
  unsigned workers = 1;
  // Bounded admission queue: at most this many accepted requests per
  // batch; the rest of a wave is shed (and counted).
  std::size_t queue_capacity = 4096;
  // Entry budget for the compact verdict table (serve::VerdictTable):
  // the most entries it grows to, one 8-byte word each.  It starts at
  // 64 words and doubles only when a set fills, so memory follows the
  // entries held; past the budget an insert replaces a way of its set.
  // The fleet's 66 scenarios hold 54 distinct fact keys and serve a
  // million subscribers; 1<<16 leaves room for real mixes.
  std::size_t verdict_table_capacity = 1 << 16;
  // Passed through to the BatchEvaluator (shared cache by default).
  legal::BatchOptions batch;
};

// How one evaluation chunk's time splits into its requests' server_ns
// (serve() says what the values mean).  A miss keeps its own interval.
// The rest of the chunk's time, chunk_ns less the misses' sum (0 if
// they exceed it), goes to the hits: hit_ns each, and one ns more to
// the first longer_hits of them; a chunk with no hit adds all of it to
// its last request.  The chunk's values then add up to chunk_ns exactly
// whenever its misses' sum does not exceed it.
struct ChunkSplit {
  std::uint64_t hit_ns = 0;
  std::uint64_t longer_hits = 0;
  std::uint64_t last_extra_ns = 0;  // nonzero only for a chunk with no hit
};

[[nodiscard]] constexpr ChunkSplit split_chunk_ns(std::uint64_t chunk_ns,
                                                  std::uint64_t miss_ns,
                                                  std::uint64_t hits) noexcept {
  const std::uint64_t rest = chunk_ns > miss_ns ? chunk_ns - miss_ns : 0;
  return ChunkSplit{hits == 0 ? 0 : rest / hits, hits == 0 ? 0 : rest % hits,
                    hits == 0 ? rest : 0};
}

// Per-client channel state, created by VerdictServer::connect().  All
// serving scratch lives here, so two connections never contend on
// buffers and a connection's steady state is allocation-flat.
class Connection {
 public:
  [[nodiscard]] const std::vector<std::uint8_t>& responses() const noexcept {
    return responses_;
  }
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.capacity();
  }
  [[nodiscard]] std::size_t response_capacity() const noexcept {
    return responses_.capacity();
  }
  [[nodiscard]] std::uint64_t batches_served() const noexcept {
    return batches_served_;
  }

 private:
  friend class VerdictServer;
  explicit Connection(std::size_t queue_capacity);

  // One accepted request: keyed at admission, then given the fields
  // its response carries by evaluation.  Recycled across batches.
  struct Slot {
    std::uint64_t request_id = 0;
    legal::FactKey key;
    // The frame in the batch being served; read only during the
    // serve() call that stored it.
    std::span<const std::uint8_t> frame;
    CompactVerdict verdict;
    bool cache_hit = false;
    std::uint32_t server_ns = 0;  // clamped; 4.2s dwarfs any eval
    wire::Request request;        // decoded on a table miss only
  };

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> responses_;  // encoded response frames
  std::uint64_t batches_served_ = 0;
};

class VerdictServer {
 public:
  explicit VerdictServer(ServerOptions options = {});

  // A new channel sized to this server's queue bound.
  [[nodiscard]] Connection connect() const;

  // Serves one batch of concatenated request frames: admission →
  // fan-out evaluation → responses appended to conn.responses() in
  // request order (one response frame per ACCEPTED request, none for
  // shed/rejected ones — a real transport would carry the shed signal
  // out of band, and the stats carry it here).  The connection's
  // previous responses are discarded.  Returns the batch's admission
  // stats; the invariant stats.balanced() && responses == accepted
  // holds on every return.
  //
  // A response's server_ns is steady_clock time on the thread that
  // evaluated the request, within its evaluation chunk (the run of
  // requests that thread evaluates in one go).  A chunk reads the clock
  // at its start and end and around each table miss, never for a hit:
  //   - a miss carries its own interval: the decode, the engine and the
  //     table insert;
  //   - the chunk's hits share the rest of its time evenly, the first
  //     (rest mod hits) of them one nanosecond more, so two hits of one
  //     chunk differ by at most 1 ns;
  //   - a chunk with no hit adds the rest to its last request.
  // So the values of a chunk add up to its time.  A hit's own interval
  // would mostly time the clock read; hits are uniform lookups, so the
  // chunk's mean per hit is the truer figure.  No value covers
  // admission (where the key is packed), the latency record or
  // encoding.
  //
  // Thread-safe across distinct connections; a single Connection must
  // not be served from two threads at once.
  ServeStats serve(Connection& conn, std::span<const std::uint8_t> frames);

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  // The fan-out width, ServerOptions::workers with 0 resolved.
  [[nodiscard]] unsigned workers() const noexcept { return options_.workers; }
  [[nodiscard]] const legal::BatchEvaluator& evaluator() const noexcept {
    return batch_;
  }

 private:
  void evaluate_range(Connection& conn, std::size_t begin,
                      std::size_t end) const;

  ServerOptions options_;
  legal::BatchEvaluator batch_;
  // Fact key -> compact verdict; the Determination stays in the
  // shared cache, this table answers the wire without copying it.
  mutable VerdictTable table_;
};

}  // namespace lexfor::serve
