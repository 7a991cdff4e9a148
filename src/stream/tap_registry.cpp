#include "stream/tap_registry.h"

#include <utility>

namespace lexfor::stream {

Result<TapSession*> TapRegistry::add_tap(
    const watermark::CorrelationKernel& kernel, TapSessionConfig config) {
  auto session = TapSession::create(kernel, std::move(config));
  if (!session.ok()) {
    ++refused_;
    return session.status();
  }
  taps_.push_back(
      std::make_unique<TapSession>(std::move(session).value()));
  return taps_.back().get();
}

Status TapRegistry::attach_all(netsim::Network& net) {
  for (auto& tap : taps_) {
    if (Status s = tap->attach(net); !s.ok()) return s;
  }
  return Status::Ok();
}

void TapRegistry::pump_all(SimTime now) {
  for (auto& tap : taps_) tap->pump(now);
}

RateRingStats TapRegistry::aggregate_ring_stats() const noexcept {
  RateRingStats total;
  for (const auto& tap : taps_) {
    const RateRingStats& s = tap->ring().stats();
    total.recorded += s.recorded;
    total.early_drops += s.early_drops;
    total.late_drops += s.late_drops;
    total.overflow_drops += s.overflow_drops;
    total.bins_popped += s.bins_popped;
  }
  return total;
}

}  // namespace lexfor::stream
