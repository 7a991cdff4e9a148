#include "watermark/multibit.h"

#include <cmath>
#include <string>

#include "obs/obs.h"

namespace lexfor::watermark {

Result<MultiBitEmbedder> MultiBitEmbedder::create(
    PnCode code, std::vector<std::int8_t> bits, MultiBitParams params) {
  if (bits.empty()) return InvalidArgument("multibit: empty payload");
  for (const auto b : bits) {
    if (b != 1 && b != -1) {
      return InvalidArgument("multibit: payload bits must be +-1");
    }
  }
  if (params.chips_per_bit == 0) {
    return InvalidArgument("multibit: chips_per_bit must be positive");
  }
  if (params.chip_duration.us < 1) {
    return InvalidArgument("multibit: chip_duration must be at least 1 us");
  }
  if (bits.size() * params.chips_per_bit > code.length()) {
    return InvalidArgument(
        "multibit: payload needs " +
        std::to_string(bits.size() * params.chips_per_bit) +
        " chips but the code has " + std::to_string(code.length()));
  }
  return MultiBitEmbedder{std::move(code), std::move(bits), params};
}

double MultiBitEmbedder::multiplier(SimTime now) const noexcept {
  if (now < params_.start) return 1.0;
  const std::int64_t elapsed = now.us - params_.start.us;
  const auto chip_idx =
      static_cast<std::size_t>(elapsed / params_.chip_duration.us);
  const std::size_t total_chips = bits_.size() * params_.chips_per_bit;
  if (chip_idx >= total_chips) return 1.0;
  const std::size_t bit_idx = chip_idx / params_.chips_per_bit;
  return 1.0 + params_.depth * static_cast<double>(bits_[bit_idx]) *
                   static_cast<double>(code_.chips()[chip_idx]);
}

Result<MultiBitDecodeResult> MultiBitDecoder::decode(
    std::span<const double> chip_rates, std::size_t num_bits) const {
  if (chips_per_bit_ == 0) {
    return InvalidArgument("multibit decode: chips_per_bit is zero");
  }
  const std::size_t need = num_bits * chips_per_bit_;
  if (need > kernel_.length()) {
    return InvalidArgument("multibit decode: payload exceeds code length");
  }
  if (chip_rates.size() < need) {
    return InvalidArgument("multibit decode: series shorter than payload (" +
                           std::to_string(chip_rates.size()) + " < " +
                           std::to_string(need) + " chips)");
  }

  LEXFOR_OBS_SPAN(obs::Level::kInfo, "watermark", "multibit_decode",
                  "bits=" + std::to_string(num_bits) +
                      ",chips_per_bit=" + std::to_string(chips_per_bit_),
                  obs::no_sim_time());
  // Segment-local mean removal: the traffic baseline may drift across a
  // long mark, so each bit despreads against its own segment mean — the
  // kernel's despread primitive does exactly that.
  MultiBitDecodeResult out;
  out.bits.reserve(num_bits);
  out.correlations.reserve(num_bits);
  for (std::size_t b = 0; b < num_bits; ++b) {
    const std::size_t begin = b * chips_per_bit_;
    const double corr =
        kernel_.despread(chip_rates.data() + begin, begin, chips_per_bit_);
    out.correlations.push_back(corr);
    out.bits.push_back(corr >= 0.0 ? std::int8_t{1} : std::int8_t{-1});
  }
  return out;
}

Result<MultiBitDecodeResult> MultiBitDecoder::decode_and_compare(
    std::span<const double> chip_rates,
    const std::vector<std::int8_t>& truth) const {
  auto result = decode(chip_rates, truth.size());
  if (!result.ok()) return result;
  auto out = std::move(result).value();
  std::size_t errors = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    errors += out.bits[i] != truth[i];
  }
  out.bit_error_rate =
      truth.empty() ? 0.0
                    : static_cast<double>(errors) /
                          static_cast<double>(truth.size());
  return out;
}

}  // namespace lexfor::watermark
