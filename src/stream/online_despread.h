// Online DSSS despreader: incremental detection over streaming rate bins.
//
// The batch pipeline buffers the whole rate series, then runs
// CorrelationKernel::scan over candidate offsets [0, max_offset].  A live
// ISP tap cannot buffer the whole series — and does not need to: for a
// code of n chips, offset `off` only depends on bins [off, off + n), so
// once bin off + n - 1 arrives that offset can be scored and never
// revisited.  OnlineDespreader exploits this:
//
//   * one FLAT linear window of n + max_offset doubles, sized up front
//     from max_offset — exactly the bins the candidate offsets can ever
//     read.  Bin t lands at window[t], every candidate window is
//     contiguous by construction, and the memory footprint is fixed the
//     moment the despreader is built (the bench gate asserts it never
//     grows).  The historic version kept a 2n mirrored ring PLUS one
//     running sum per offset (2n + max_offset + 1 doubles) and spent
//     O(min(n, max_offset)) adds per bin maintaining those sums — the
//     A-STREAM degrade from 2.6 to 28.9 ns/bin at degree 12 × offset
//     256 was that loop;
//   * offsets finalize in increasing order, reproducing scan()'s
//     earliest-offset tie-breaking, under the same Bonferroni threshold
//     (scan_threshold with k = max_offset + 1).  A finalized offset is
//     scored by the kernel's own despread() over window + off: its
//     sequential sum adds bins in index order — the order they arrived
//     — so the score is bit-identical to the batch pass.
//
// Contract (enforced by tests and the A-STREAM bench gate): after
// max_offset + n bins, verdict() is BIT-IDENTICAL — correlation,
// threshold, offset, and decision — to
// CorrelationKernel::scan(series, max_offset) on any batch series whose
// first max_offset + n bins equal the streamed ones; for max_offset = 0
// that is the aligned despread of the same window.  The batch scan
// stays the oracle: this class holds no scoring math of its own, only
// the bookkeeping to feed the kernel incrementally.  Peak memory is
// n + max_offset doubles — O(code length + offset window), independent
// of stream length, allocated once in the constructor and owned by the
// despreader.  The window's address does not change when the
// despreader moves, so the type is safely movable.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "util/status.h"
#include "watermark/correlate.h"

namespace lexfor::stream {

// A per-offset score, emitted the moment that offset's window closes.
struct StreamScore {
  std::size_t offset = 0;
  double correlation = 0.0;
};

struct OnlineVerdict {
  watermark::ScanResult scan;      // best offset so far + decision
  std::size_t offsets_scored = 0;  // windows finalized so far
  bool complete = false;           // all offsets [0, max_offset] scored
};

class OnlineDespreader {
 public:
  // The kernel must outlive this despreader (same lifetime rule as
  // ScanJob).  `max_offset` fixes the candidate window — and therefore
  // the Bonferroni threshold AND the memory footprint
  // (kernel.length() + max_offset doubles) — at construction.
  OnlineDespreader(const watermark::CorrelationKernel& kernel,
                   std::size_t max_offset);

  // Ingests the next rate bin.  Returns the offset score this bin
  // completed, if any (bin t finalizes offset t - n + 1).  Bins past
  // the candidate window are counted and ignored — the verdict is
  // frozen once complete, matching what batch scan() would return.
  std::optional<StreamScore> push(double rate);

  [[nodiscard]] const OnlineVerdict& verdict() const noexcept {
    return verdict_;
  }
  [[nodiscard]] std::size_t bins_consumed() const noexcept { return bins_; }
  [[nodiscard]] std::uint64_t bins_ignored() const noexcept {
    return ignored_;
  }
  [[nodiscard]] std::size_t max_offset() const noexcept { return max_offset_; }
  // Doubles held, the O(1)-in-stream-length bound the bench gates on.
  // Fixed at construction: n + max_offset.
  [[nodiscard]] std::size_t memory_doubles() const noexcept {
    return window_len_;
  }

 private:
  const watermark::CorrelationKernel& kernel_;
  std::size_t max_offset_;
  std::size_t window_len_ = 0;  // n + max_offset
  // Flat: bin t at window_[t].  Left uninitialized, since bin t is
  // written before any offset reads it.
  std::unique_ptr<double[]> window_;
  std::size_t bins_ = 0;        // bins ingested (== next bin index)
  std::uint64_t ignored_ = 0;   // bins past the candidate window
  OnlineVerdict verdict_;
};

}  // namespace lexfor::stream
