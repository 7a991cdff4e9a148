// TapRegistry: every suspect tap of one investigation, so a
// multi-suspect investigation taps ALL candidate flows in a single
// simulation pass.
//
// Running the simulation once per candidate, tapping one node each
// time, would multiply simulated events by the suspect count.  A §IV.B
// collection point does not get to replay reality: every candidate's
// tap must ride the SAME traffic.  TapRegistry makes that the cheap
// path:
//
//   * admission per suspect — add_tap() routes each candidate's
//     collection posture through TapSession::create's legal gate
//     (shared legal::BatchEvaluator verdict cache + GrantedAuthority
//     check) BEFORE any state exists.  A refused suspect gets no slot,
//     no ring and no window; the refusal count is part of the
//     registry's audit surface.
//
//   * single-pass fan-out — attach_all() hooks every tap to its node,
//     one Network::run() drives them all, pump_all() flushes the
//     tails.  For pre-binned rates (the tornet traceback bins every
//     flow once), feed_bin() fans one bin to one tap directly.
//
//   * exhaustive drop accounting — aggregate_ring_stats() sums every
//     tap's RateRingStats; the invariant recorded + early + late +
//     overflow == offered holds for the aggregate exactly as it holds
//     per tap (tests pin it under overload and mid-flight topology
//     changes).
//
// Results are locked identical to despreading each flow on its own:
// each tap owns its ring and an independent OnlineDespreader fed
// exactly the bins its node saw, so sharing the simulation pass never
// changes what any despreader reads.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/network.h"
#include "stream/tap_session.h"
#include "util/status.h"
#include "watermark/correlate.h"

namespace lexfor::stream {

class TapRegistry {
 public:
  TapRegistry() = default;

  // Admission-gated tap creation: runs the full TapSession legal gate.
  // On refusal the registry gains no slot and refused() increments.
  // The returned pointer is stable for the registry's lifetime.  The
  // kernel must outlive the registry.
  [[nodiscard]] Result<TapSession*> add_tap(
      const watermark::CorrelationKernel& kernel, TapSessionConfig config);

  // Attaches every admitted tap to its target node.  Stops at the
  // first failure (a dangling NodeId is a caller bug, not a drop).
  [[nodiscard]] Status attach_all(netsim::Network& net);

  // Flushes every tap's closed bins into its despreader — call with
  // net.now() after the simulation to score the tails.
  void pump_all(SimTime now);

  // Direct feed of one pre-binned rate to tap `index` (single-pass
  // traceback over analytically binned flows).
  void feed_bin(std::size_t index, double rate) {
    taps_[index]->ingest_bin(rate);
  }

  [[nodiscard]] std::size_t size() const noexcept { return taps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return taps_.empty(); }
  [[nodiscard]] TapSession& tap(std::size_t index) { return *taps_[index]; }
  [[nodiscard]] const TapSession& tap(std::size_t index) const {
    return *taps_[index];
  }
  // Admissions the legal gate refused (audit surface, not an error).
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }

  // Sum of every tap's ring accounting.  The conservation invariant
  // recorded + early_drops + late_drops + overflow_drops == offered()
  // is exact on the aggregate (each addend is exact per tap).
  [[nodiscard]] RateRingStats aggregate_ring_stats() const noexcept;

 private:
  // unique_ptr per tap: TapSession is address-sensitive (netsim taps
  // capture `this`), so slots must never relocate as taps are added.
  std::vector<std::unique_ptr<TapSession>> taps_;
  std::uint64_t refused_ = 0;
};

}  // namespace lexfor::stream
