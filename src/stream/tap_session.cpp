#include "stream/tap_session.h"

#include <string>
#include <utility>

#include "obs/obs.h"

namespace lexfor::stream {

Result<TapSession> TapSession::create(
    const watermark::CorrelationKernel& kernel, TapSessionConfig config) {
  if (!config.target.valid()) {
    return InvalidArgument("TapSession: target node is invalid");
  }

  // Legal gate first: nothing is allocated for a session the engine or
  // the held authority rules out.  The shared verdict cache makes the
  // evaluation a lookup when the same posture was already linted.
  legal::BatchEvaluator evaluator;
  legal::Determination admission = evaluator.evaluate(config.scenario);
  const legal::ProcessKind required = admission.needs_process
                                          ? admission.required_process
                                          : legal::ProcessKind::kNone;
  const Status permitted = config.authority.permits(
      required, config.scenario.data, config.location, config.ring.start);
  if (!permitted.ok()) {
    LEXFOR_OBS_COUNTER_ADD("stream.tap.refused", 1);
    LEXFOR_OBS_EVENT(obs::Level::kAudit, "stream", "tap_refused",
                     "scenario=" + config.scenario.name +
                         ",required=" + std::string(to_string(required)),
                     config.ring.start);
    return permitted;
  }

  LEXFOR_OBS_COUNTER_ADD("stream.tap.admitted", 1);
  LEXFOR_OBS_EVENT(obs::Level::kAudit, "stream", "tap_admitted",
                   "scenario=" + config.scenario.name +
                       ",required=" + std::string(to_string(required)) +
                       ",held=" +
                       std::string(to_string(config.authority.kind())),
                   config.ring.start);

  auto ring = RateRing::create(config.ring);
  if (!ring.ok()) return ring.status();
  return TapSession(kernel, std::move(config), std::move(admission),
                    std::move(ring).value());
}

Status TapSession::attach(netsim::Network& net) {
  return net.add_node_tap(
      config_.target, [this](const netsim::TapEvent& ev) { on_traversal(ev); });
}

void TapSession::on_traversal(const netsim::TapEvent& ev) {
  // A node tap sees both directions on every incident link; the rate
  // series the despreader wants is ARRIVALS at the suspect's access
  // node (the downstream side of the ISP tap).
  if (ev.to != config_.target) {
    ++stats_.foreign_packets;
    LEXFOR_OBS_COUNTER_ADD("stream.tap.foreign_packets", 1);
    return;
  }
  ++stats_.packets_seen;
  LEXFOR_OBS_COUNTER_ADD("stream.tap.packets", 1);
  const RecordOutcome outcome = ring_.record(ev.at);
  if (outcome != RecordOutcome::kRecorded) {
    LEXFOR_OBS_COUNTER_ADD("stream.tap.drops", 1);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "stream", "tap_drop",
                     "outcome=" +
                         std::to_string(static_cast<int>(outcome)),
                     ev.at);
  }
  LEXFOR_OBS_GAUGE_SET("stream.tap.ring_occupancy",
                       static_cast<std::int64_t>(ring_.occupancy()));
  // Opportunistic drain: sim time only moves forward, so every bin
  // ending at or before this traversal is final.
  pump(ev.at);
}

void TapSession::ingest_bin(double rate) {
  (void)despreader_.push(rate);
  ++stats_.bins_scored;
  LEXFOR_OBS_COUNTER_ADD("stream.tap.bins", 1);
}

void TapSession::pump(SimTime now) {
  LEXFOR_OBS_PROFILE("stream.tap.pump");
  const std::uint64_t first_bin = ring_.base_bin();
  drain_.clear();
  const std::size_t popped = ring_.pop_closed(now, drain_);
  if (popped == 0) return;

  const double bin_sec = ring_.bin_width().seconds();
  for (std::size_t i = 0; i < popped; ++i) {
    // Same counts→rates conversion as the batch RateRecorder::rates(),
    // so streamed bins are bit-identical despread input.
    (void)despreader_.push(static_cast<double>(drain_[i]) / bin_sec);
    ++stats_.bins_scored;
    [[maybe_unused]] const SimTime bin_end =
        ring_.start() + ring_.bin_width() *
                            static_cast<std::int64_t>(first_bin + i + 1);
    LEXFOR_OBS_HISTOGRAM_RECORD("stream.tap.bin_latency_us",
                                (now - bin_end).us);
  }
  LEXFOR_OBS_COUNTER_ADD("stream.tap.bins", static_cast<std::int64_t>(popped));
  LEXFOR_OBS_GAUGE_SET("stream.tap.ring_occupancy",
                       static_cast<std::int64_t>(ring_.occupancy()));
}

}  // namespace lexfor::stream
