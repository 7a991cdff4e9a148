// TapSession: a legally-admitted streaming ISP tap.
//
// The §IV.B traceback is only lawful as NON-CONTENT, real-time
// collection under a pen/trap-style court order — the paper's central
// point is that the technique's evidentiary value depends on that
// posture.  TapSession enforces it by construction, the same way
// capture::CaptureDevice does for packet capture:
//
//   admission — create() runs the collection Scenario through
//   legal::BatchEvaluator (shared process-wide verdict cache, so a
//   verdict derived at plan-lint time is a hit here) and then checks
//   the held GrantedAuthority against the determined minimum process.
//   A non-compliant scenario or insufficient authority means NO
//   SESSION EXISTS: zero bins are ever recorded, which is the
//   acceptance bar, not a best-effort filter.
//
//   bounded recording — packet arrivals at the target node are binned
//   into a RateRing (O(capacity) memory).  Overload and mid-flight
//   topology changes degrade to counted drops + audit events, never
//   crashes or unbounded buffering.
//
//   online detection — pump() drains closed bins into an
//   OnlineDespreader, so the verdict is available the moment a full
//   code period has been scored, bit-identical to the batch oracle.
//
// Obs surface: stream.tap.{admitted,refused,packets,foreign_packets,
// bins,drops} counters, stream.tap.bin_latency_us histogram (sim-time
// lag between a bin closing and it being scored), and the
// stream.tap.ring_occupancy gauge.  Admission decisions are kAudit
// trace events — part of the custody record.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "legal/authority.h"
#include "legal/batch.h"
#include "legal/scenario.h"
#include "netsim/network.h"
#include "stream/online_despread.h"
#include "stream/rate_ring.h"
#include "util/status.h"
#include "watermark/correlate.h"

namespace lexfor::stream {

struct TapSessionConfig {
  // The collection posture the legal engine evaluates (e.g.
  // tornet::collection_scenario(): law enforcement, addressing data,
  // in transit, real time).
  legal::Scenario scenario;
  legal::GrantedAuthority authority;
  std::string location = "suspect ISP";  // must be within authority scope
  NodeId target;                         // node whose arrivals are binned
  RateRingConfig ring;                   // bin 0 = first code chip
  std::size_t max_offset = 0;            // candidate despread offsets
};

struct TapSessionStats {
  std::uint64_t packets_seen = 0;     // traversals toward the target
  std::uint64_t foreign_packets = 0;  // traversals not toward the target
  std::uint64_t bins_scored = 0;      // bins fed to the despreader
};

class TapSession {
 public:
  // The legal gate.  Evaluates `config.scenario`, checks the authority,
  // and refuses (PermissionDenied / InvalidArgument) before any
  // recording state is allocated.  An admitted session owns its ring
  // and its despread window.  The kernel must outlive the session.
  [[nodiscard]] static Result<TapSession> create(
      const watermark::CorrelationKernel& kernel, TapSessionConfig config);

  // Attaches to every link incident to the target node.
  [[nodiscard]] Status attach(netsim::Network& net);

  // The tap entry point (also callable directly in tests).  Records
  // arrivals at the target into the ring and opportunistically drains
  // bins the event clock has closed.
  void on_traversal(const netsim::TapEvent& ev);

  // Drains every bin closed at `now` into the despreader.  Call once
  // after the simulation with net.now() to flush the tail.
  void pump(SimTime now);

  // Direct feed for callers that already hold binned rates (the
  // single-pass tornet traceback bins all flows once, then fans the
  // bins out to every admitted tap).  Bypasses the ring — the bin was
  // closed by the producer — but still counts toward bins_scored and
  // drives the same despreader as pump().
  void ingest_bin(double rate);

  [[nodiscard]] const OnlineVerdict& verdict() const noexcept {
    return despreader_.verdict();
  }
  [[nodiscard]] const OnlineDespreader& despreader() const noexcept {
    return despreader_;
  }
  [[nodiscard]] const RateRing& ring() const noexcept { return ring_; }
  [[nodiscard]] const TapSessionStats& stats() const noexcept { return stats_; }
  // The admission analysis the session was created under — goes with
  // the evidence when the verdict is offered in court.
  [[nodiscard]] const legal::Determination& admission() const noexcept {
    return admission_;
  }

 private:
  TapSession(const watermark::CorrelationKernel& kernel,
             TapSessionConfig config, legal::Determination admission,
             RateRing ring)
      : config_(std::move(config)),
        admission_(std::move(admission)),
        ring_(std::move(ring)),
        despreader_(kernel, config_.max_offset) {}

  TapSessionConfig config_;
  legal::Determination admission_;
  RateRing ring_;
  OnlineDespreader despreader_;
  TapSessionStats stats_;
  std::vector<std::uint32_t> drain_;  // reused pop_closed scratch
};

}  // namespace lexfor::stream
