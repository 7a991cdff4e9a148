// The baseline-ISA lane of the owned log, and its dispatch.

#include "util/lane_log.h"

namespace lexfor::util {

void lane_log_baseline(const double* x, double* out, std::size_t n) noexcept {
  detail::lane_log_block<2>(x, out, n);
}

LaneLog lane_log() noexcept {
  static const LaneLog lane = [] {
    const LaneLog avx2 = lane_log_avx2();
    return avx2 != nullptr ? avx2 : &lane_log_baseline;
  }();
  return lane;
}

}  // namespace lexfor::util
