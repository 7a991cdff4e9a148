// Fixed-capacity ring-buffer rate recorder for streaming ISP taps.
//
// netsim::RateRecorder grows a vector one bin per window for as long as
// the simulation runs — fine for offline experiments, unacceptable for
// a tap that runs continuously on live traffic (§IV.B collection is a
// pen/trap-style tap, always on).  RateRing keeps exactly `capacity`
// bins of history: packet events are counted into sim-time windows, a
// consumer drains closed windows in order, and anything the ring cannot
// hold is DROPPED AND COUNTED rather than buffered.  Memory is O(capacity)
// regardless of stream length, and every loss is visible in the stats —
// an audit requirement, not a nicety: a tap that silently sheds bins
// produces a rate series the despreader cannot be trusted on.
//
// Bin i covers sim time [start + i·bin_width, start + (i+1)·bin_width).
// The ring holds bins [base, base + capacity); record() classifies each
// event as recorded / early (before `start`) / late (bin already
// consumed) / overflow (bin beyond the ring while the consumer lags).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/sim_time.h"
#include "util/status.h"

namespace lexfor::stream {

struct RateRingConfig {
  SimTime start = SimTime::zero();  // bin 0 begins here
  SimDuration bin_width = SimDuration::from_ms(400.0);
  std::size_t capacity = 1024;  // bins retained; the hard memory bound
};

// Every event is accounted for exactly once: recorded + early_drops +
// late_drops + overflow_drops == events offered.
struct RateRingStats {
  std::uint64_t recorded = 0;
  std::uint64_t early_drops = 0;     // event before the tap's start time
  std::uint64_t late_drops = 0;      // bin already drained and recycled
  std::uint64_t overflow_drops = 0;  // ring full, consumer lagging
  std::uint64_t bins_popped = 0;     // closed bins handed to the consumer

  [[nodiscard]] std::uint64_t offered() const noexcept {
    return recorded + early_drops + late_drops + overflow_drops;
  }
};

enum class RecordOutcome : std::uint8_t {
  kRecorded,
  kEarly,
  kLate,
  kOverflow,
};

class RateRing {
 public:
  [[nodiscard]] static Result<RateRing> create(RateRingConfig config);

  // Counts one packet event at sim time `at` into its bin; never grows
  // memory.  Out-of-window events are dropped and classified.
  RecordOutcome record(SimTime at) noexcept;

  // Drains every bin fully closed at `now` (bin end <= now) in order,
  // appending counts to `out` — zero-count bins included, since silence
  // is signal for the despreader.  Returns the number of bins popped.
  std::size_t pop_closed(SimTime now, std::vector<std::uint32_t>& out);

  // Index of the oldest bin still held (== bins popped so far).
  [[nodiscard]] std::uint64_t base_bin() const noexcept { return base_; }
  // Bins currently occupied (base through the highest bin touched).
  [[nodiscard]] std::size_t occupancy() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const RateRingStats& stats() const noexcept { return stats_; }
  [[nodiscard]] SimTime start() const noexcept { return config_.start; }
  [[nodiscard]] SimDuration bin_width() const noexcept {
    return config_.bin_width;
  }

 private:
  explicit RateRing(RateRingConfig config);

  RateRingConfig config_;
  // Bin b lives at bins_[b % capacity], zeroed at construction.
  std::unique_ptr<std::uint32_t[]> bins_;
  std::size_t capacity_ = 0;
  std::uint64_t base_ = 0;  // oldest retained bin index
  std::uint64_t high_ = 0;  // one past the highest bin touched
  RateRingStats stats_;
};

}  // namespace lexfor::stream
