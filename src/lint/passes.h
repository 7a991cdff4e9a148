// The diagnostic passes, which PlanLinter::lint runs in this order.
//
// Each pass mirrors a way real evidence dies in court:
//
//   missing-process    the step's intended authority is weaker than the
//                      instrument the compliance engine requires
//   expired-authority  the step is scheduled outside its instrument's
//                      validity window (Sgro: a warrant is not a
//                      standing license)
//   poisonous-tree     static taint closure over derived_from edges,
//                      honoring independent-source / inevitable-
//                      discovery, mirroring legal/suppression.h
//   standing-mismatch  the defect invades a third party's rights, so
//                      suppression standing never attaches to the
//                      charged suspect (Rakas)
//   unreachable-step   derivation from a step that cannot occur
//                      (unknown, self-referential, or scheduled later)
//   proof-gap          a process application is scheduled before the
//                      available fact set supports the required
//                      standard of proof

#pragma once

#include "lint/linter.h"

namespace lexfor::lint {

inline constexpr std::string_view kRuleMissingProcess = "missing-process";
inline constexpr std::string_view kRuleExpiredAuthority = "expired-authority";
inline constexpr std::string_view kRulePoisonousTree = "poisonous-tree";
inline constexpr std::string_view kRuleStandingMismatch = "standing-mismatch";
inline constexpr std::string_view kRuleUnreachableStep = "unreachable-step";
inline constexpr std::string_view kRuleProofGap = "proof-gap";

// Each pass appends its diagnostics to `out`, stamped with its rule id.
void missing_process(const PlanContext& ctx, std::vector<Diagnostic>& out);
void expired_authority(const PlanContext& ctx, std::vector<Diagnostic>& out);
void poisonous_tree(const PlanContext& ctx, std::vector<Diagnostic>& out);
void standing_mismatch(const PlanContext& ctx, std::vector<Diagnostic>& out);
void unreachable_step(const PlanContext& ctx, std::vector<Diagnostic>& out);
void proof_gap(const PlanContext& ctx, std::vector<Diagnostic>& out);

}  // namespace lexfor::lint
