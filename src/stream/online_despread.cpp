#include "stream/online_despread.h"

namespace lexfor::stream {

OnlineDespreader::OnlineDespreader(const watermark::CorrelationKernel& kernel,
                                   std::size_t max_offset)
    : kernel_(kernel),
      max_offset_(max_offset),
      window_len_(kernel.length() + max_offset),
      window_(std::make_unique_for_overwrite<double[]>(window_len_)) {
  // Fixed k = max_offset + 1: identical to scan() over a series of
  // max_offset + n bins (or longer — scan clamps to the same k).
  verdict_.scan.best.correlation = -2.0;  // below any achievable value
  verdict_.scan.best.threshold = kernel_.scan_threshold(max_offset + 1);
}

std::optional<StreamScore> OnlineDespreader::push(double rate) {
  if (verdict_.complete) {
    ++ignored_;
    return std::nullopt;
  }
  const std::size_t n = kernel_.length();
  const std::size_t t = bins_++;

  // The window is sized for every bin a candidate offset can read
  // (t < n + max_offset until the verdict completes), so bin t lands
  // flat at window_[t] — no ring seam, no mirror write, no per-offset
  // running sums.
  window_[t] = rate;

  if (t + 1 < n) return std::nullopt;
  const std::size_t off = t + 1 - n;  // the offset bin t finalizes
  if (off > max_offset_) return std::nullopt;

  // despread()'s sequential sum adds window_[off..off+n) in index
  // order — the order the bins arrived — so the score is bit-identical
  // to the batch scan over the same series.
  const double corr =
      kernel_.despread(window_.get() + off, /*code_begin=*/0, n);
  ++verdict_.offsets_scored;
  if (corr > verdict_.scan.best.correlation) {
    verdict_.scan.best.correlation = corr;
    verdict_.scan.offset = off;
  }
  verdict_.scan.best.detected =
      verdict_.scan.best.correlation > verdict_.scan.best.threshold;
  verdict_.complete = off == max_offset_;
  return StreamScore{off, corr};
}

}  // namespace lexfor::stream
