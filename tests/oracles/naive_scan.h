// The naive per-offset scan: the oracle for CorrelationKernel::scan and
// ScanBatch.
//
// For every offset it copies the window and recomputes each statistic
// from scratch through plain loops, independent of CorrelationKernel,
// so a bit-identity test compares two implementations, not one with
// itself.  The A-SCAN bench also times it as the cost the kernel must
// beat.

#pragma once

#include <cstddef>
#include <span>

#include "util/status.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::oracles {

// Slides `code` over offsets [0, min(max_offset, rates.size() - n)] and
// returns the best despread under the Bonferroni-inflated threshold
// (+sqrt(2 ln k) sigma for k offsets); ties keep the earliest offset.
// `threshold_sigmas` is in units of 1/sqrt(n), as in CorrelationKernel.
// A series shorter than the code is an error.
[[nodiscard]] Result<watermark::ScanResult> naive_scan(
    const watermark::PnCode& code, std::span<const double> rates,
    std::size_t max_offset, double threshold_sigmas = 5.0);

}  // namespace lexfor::oracles
