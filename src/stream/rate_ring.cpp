#include "stream/rate_ring.h"

#include <string>

#include "obs/obs.h"

namespace lexfor::stream {

Result<RateRing> RateRing::create(RateRingConfig config) {
  if (config.capacity == 0) {
    return InvalidArgument("RateRing: capacity must be positive");
  }
  if (config.bin_width.us <= 0) {
    return InvalidArgument("RateRing: bin width must be positive, got " +
                           std::to_string(config.bin_width.us) + "us");
  }
  return RateRing(config);
}

RateRing::RateRing(RateRingConfig config)
    : config_(config),
      bins_(std::make_unique<std::uint32_t[]>(config.capacity)),
      capacity_(config.capacity) {}

RecordOutcome RateRing::record(SimTime at) noexcept {
  if (at < config_.start) {
    ++stats_.early_drops;
    LEXFOR_OBS_COUNTER_ADD("stream.ring.early_drops", 1);
    return RecordOutcome::kEarly;
  }
  const auto bin = static_cast<std::uint64_t>((at - config_.start).us /
                                              config_.bin_width.us);
  if (bin < base_) {
    ++stats_.late_drops;
    LEXFOR_OBS_COUNTER_ADD("stream.ring.late_drops", 1);
    return RecordOutcome::kLate;
  }
  if (bin >= base_ + capacity_) {
    ++stats_.overflow_drops;
    LEXFOR_OBS_COUNTER_ADD("stream.ring.overflow_drops", 1);
    return RecordOutcome::kOverflow;
  }
  ++bins_[bin % capacity_];
  ++stats_.recorded;
  if (bin + 1 > high_) high_ = bin + 1;
  return RecordOutcome::kRecorded;
}

std::size_t RateRing::pop_closed(SimTime now, std::vector<std::uint32_t>& out) {
  if (now <= config_.start) return 0;
  // Bin b is closed once its end, start + (b+1)·width, is <= now.
  const auto closed =
      static_cast<std::uint64_t>((now - config_.start).us / config_.bin_width.us);
  std::size_t popped = 0;
  while (base_ < closed) {
    auto& slot = bins_[base_ % capacity_];
    out.push_back(slot);
    slot = 0;  // recycle for bin base_ + capacity
    ++base_;
    ++popped;
  }
  if (high_ < base_) high_ = base_;
  stats_.bins_popped += popped;
  return popped;
}

std::size_t RateRing::occupancy() const noexcept {
  return static_cast<std::size_t>(high_ - base_);
}

}  // namespace lexfor::stream
