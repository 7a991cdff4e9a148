#include "legal/fact_key.h"

namespace lexfor::legal {

FactKey fact_key(const Scenario& s) noexcept {
  std::uint64_t bits = 0;
  unsigned at = 0;
#define LEXFOR_KEY_ENUM(member, Type, last)                     \
  bits |= static_cast<std::uint64_t>(s.member) << at;          \
  at += fact_bits(Type::last);
#define LEXFOR_KEY_FLAG(member) \
  bits |= static_cast<std::uint64_t>(s.member) << at++;
  LEXFOR_FACT_LIST(LEXFOR_KEY_ENUM, LEXFOR_KEY_FLAG)
#undef LEXFOR_KEY_ENUM
#undef LEXFOR_KEY_FLAG
  bits |= static_cast<std::uint64_t>(jurisdiction_index(s.jurisdiction)) << at;
  return FactKey{bits};
}

}  // namespace lexfor::legal
