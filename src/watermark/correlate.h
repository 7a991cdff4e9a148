// Sliding-window correlation kernel for DSSS watermark detection.
//
// The §IV.B traceback runs the matched filter against EVERY candidate
// flow an ISP vantage point observes, and alignment-free detection runs
// it at every candidate offset of every flow.  The original scan path
// copied the tail of the rate series into a fresh vector per offset and
// recomputed the statistics from scratch through an allocating detector
// — O(k·n) flops buried under O(k·tail) copies and k heap allocations.
// CorrelationKernel is the allocation-free core every detector sits
// on: aligned detection is scan() at max_offset 0, and the streaming
// despreader (stream/online_despread.h) and the batch fan-out
// (scan_batch.h) run the same code:
//
//   * the PN code is pre-converted once into a contiguous ±1.0 double
//     buffer, so the despread loop is a straight-line dot product with
//     no int8→double conversion per element;
//   * the per-offset mean/correlate passes are manually unrolled 4-wide
//     over that buffer, read the observed series in place through
//     std::span, and never allocate;
//   * per-offset work is exactly the two passes the aligned detector
//     does — nothing else.  No window copy, no obs emission, no
//     detector re-construction inside the loop.
//
// Bit-identity contract: scan() and despread() perform the SAME
// floating-point operations in the SAME order as the naive per-offset
// scan (the test oracle in tests/oracles/naive_scan.h) and the historic
// multibit decoder loop.  Within one window the unrolling below keeps a
// single accumulator chain per statistic, so it reorders nothing.  We
// deliberately rejected a prefix-sum O(1)-per-offset formulation for
// the mean/denominator: differencing running sums reassociates the
// additions and breaks the bit-for-bit oracle test (and loses digits to
// cancellation on long series).
//
// scan() gets its speed across offsets instead of within one sum: it
// scores blocks of consecutive offsets at once, one offset per vector
// lane (despread_block.h), each lane repeating the scalar despread's
// operations in the scalar despread's order.  A block is 16 offsets
// with AVX2 (correlate_simd.cpp, when simd_lane_available()) and 8 at
// the baseline ISA; the offsets left over after the last full block go
// through despread().  scan() is the one-code case of the family scan
// ScanBatch runs when several code windows scan one series: the window
// sum, mean and den do not depend on the code, so a family block
// computes them once and each code adds only its num = Σ d·c.  On whole
// counts (what a court-order tap collects), a family of codes ranks
// first: the correlation Σ x·c of whole counts under ±1 chips is an
// exact integer in any order of the sums, so an integer lane computes it
// for every code and offset, and a derived error bound then marks the
// few offsets per code that can still be its best.  Only those are
// despread, by the scalar despread itself, and every other offset
// provably scores below them, so the ranking moves no bit either.
// Every path is bit-identical, so every caller, evidentiary records
// included, gets the same bits — see A-SCAN and A-SIMD in EXPERIMENTS.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"
#include "watermark/pn_code.h"

namespace lexfor::watermark {

struct DetectionResult {
  double correlation = 0.0;  // normalized despread score in [-1, 1]
  double threshold = 0.0;    // decision threshold actually used
  bool detected = false;
};

struct ScanResult {
  DetectionResult best;
  std::size_t offset = 0;  // bin offset where the best despread occurred
};

class ScanBatch;

namespace detail {
// One code as a scan reads it: its chips as ±1.0, the same chips as ±1
// int16 followed by one 0, and their sum.
struct ScanCode {
  const double* chips;
  const std::int16_t* chips_i16;
  double chip_sum;
};
}  // namespace detail

class CorrelationKernel {
 public:
  // `threshold_sigmas`: decision threshold in units of the null-model
  // standard deviation 1/sqrt(N) (N = code length).  5 sigma keeps the
  // false-positive rate negligible for the code lengths used here.
  explicit CorrelationKernel(PnCode code, double threshold_sigmas = 5.0);

  // Matched-filter detection: slides the code over offsets
  // [0, min(max_offset, rates.size() - n)] and returns the best
  // despread under a Bonferroni-inflated threshold (+sqrt(2 ln k)
  // sigma for k offsets).  Ties keep the earliest offset.  max_offset 0
  // is aligned detection on rates[0..n) under the plain threshold (the
  // investigator controls the embed start, §IV.B).  Short series are an
  // error; extra bins are ignored.  Allocation-free.
  [[nodiscard]] Result<ScanResult> scan(std::span<const double> rates,
                                        std::size_t max_offset) const;

  // True when scan() runs the AVX2 instantiation of the blocked
  // despread on this build + host (compile-time LEXFOR_SIMD option AND
  // runtime CPU support); false means it runs the baseline-ISA one.
  // Both give the same bits.
  [[nodiscard]] static bool simd_lane_available() noexcept;

  // Segment despread primitive: the normalized, segment-mean-removed
  // correlation of x[0..len) against code chips
  // [code_begin, code_begin + len).  Returns 0.0 for a flat segment.
  // The caller guarantees code_begin + len <= length().  The multibit
  // decoder scores bit i over chips [i·L, (i+1)·L) with it.
  [[nodiscard]] double despread(const double* x, std::size_t code_begin,
                                std::size_t len) const noexcept;

  // The Bonferroni-inflated decision threshold scan() applies when `k`
  // candidate offsets are tried over the full code.  k = 1 adds
  // nothing, so it is the plain aligned threshold, bit for bit.
  // Exposed so the streaming despreader applies the same formula
  // through the same code path.
  [[nodiscard]] double scan_threshold(std::size_t k) const noexcept;

  // Normalized mean-removed cross-correlation of two equal-length series
  // (the Pearson coefficient): the passive flow-correlation baseline's
  // score, computed with the same sequential-order accumulation loops as
  // the despread above so the repo has exactly one scoring
  // implementation.  Bit-identical to the naive Pearson loops of the
  // test oracle in tests/oracles/.  Degenerate input — mismatched
  // lengths, fewer than two samples, zero variance — scores 0.0.
  [[nodiscard]] static double cross_score(std::span<const double> a,
                                          std::span<const double> b) noexcept;

  [[nodiscard]] const PnCode& code() const noexcept { return code_; }
  [[nodiscard]] std::size_t length() const noexcept {
    return chips_f64_.size();
  }
  [[nodiscard]] double threshold_sigmas() const noexcept {
    return threshold_sigmas_;
  }

 private:
  // ScanBatch runs a family of jobs through window() and decide(), the
  // same checks and verdict scan() applies to one.
  friend class ScanBatch;

  // A code window that passed scan()'s checks: its code, its length and
  // the last offset the scan scores.
  struct Window {
    detail::ScanCode code;
    std::size_t n;
    std::size_t last_offset;
  };
  [[nodiscard]] Result<Window> window(std::span<const double> rates,
                                      std::size_t max_offset) const;
  // Sets best's Bonferroni threshold and verdict for a scan of `window`.
  [[nodiscard]] ScanResult decide(ScanResult best,
                                  const Window& window) const noexcept;

  PnCode code_;
  std::vector<double> chips_f64_;  // code chips pre-converted to ±1.0
  std::vector<std::int16_t> chips_i16_;  // the chips as ±1, then one 0
  double chip_sum_ = 0.0;                // Σ chips, exact
  double threshold_sigmas_;
};

}  // namespace lexfor::watermark
