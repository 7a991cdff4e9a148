#include "watermark/gold_code.h"

#include <string>

namespace lexfor::watermark {
namespace {

// Preferred-pair decimations: the second sequence is the first decimated
// by q = 2^k + 1 with gcd(n, k) chosen so the pair is preferred.  We
// tabulate a known-good decimation per degree (classical values).
int preferred_decimation(int degree) {
  switch (degree) {
    case 5: return 3;    // q = 2^1+1, n=5, k=1
    case 6: return 5;    // k=2
    case 7: return 3;
    case 9: return 3;
    case 10: return 5;
    case 11: return 3;
    default: return 0;   // no preferred pair tabulated (incl. degree 8)
  }
}

PnCode decimate(const PnCode& base, int q) {
  const std::size_t n = base.length();
  std::vector<std::int8_t> chips(n);
  for (std::size_t i = 0; i < n; ++i) {
    chips[i] = base.chips()[(i * static_cast<std::size_t>(q)) % n];
  }
  return PnCode::from_chips(std::move(chips)).value();
}

PnCode xor_shifted(const PnCode& u, const PnCode& v, std::size_t shift) {
  const std::size_t n = u.length();
  std::vector<std::int8_t> chips(n);
  for (std::size_t i = 0; i < n; ++i) {
    // In the +-1 domain, XOR of bits is the product of chips.
    chips[i] = static_cast<std::int8_t>(u.chips()[i] *
                                        v.chips()[(i + shift) % n]);
  }
  return PnCode::from_chips(std::move(chips)).value();
}

}  // namespace

Result<GoldCodeFamily> GoldCodeFamily::create(int degree) {
  const int q = preferred_decimation(degree);
  if (q == 0) {
    return InvalidArgument(
        "GoldCodeFamily: no preferred pair tabulated for degree " +
        std::to_string(degree) + " (supported: 5,6,7,9,10,11)");
  }
  auto base = PnCode::m_sequence(degree);
  if (!base.ok()) return base.status();
  const PnCode u = std::move(base).value();
  const PnCode v = decimate(u, q);

  const std::size_t n = u.length();
  std::vector<PnCode> family;
  family.reserve(n + 2);
  family.push_back(u);
  family.push_back(v);
  for (std::size_t shift = 0; shift < n; ++shift) {
    family.push_back(xor_shifted(u, v, shift));
  }
  return GoldCodeFamily{std::move(family)};
}

}  // namespace lexfor::watermark
