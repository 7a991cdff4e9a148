// PlanLinter: static analysis over an InvestigationPlan.
//
// The linter evaluates every planned acquisition through the
// ComplianceEngine (the oracle the runtime uses, reached via the
// shared verdict cache of legal::BatchEvaluator), resolves intended
// authorities, computes reachability and a static fruit-of-the-
// poisonous-tree taint closure, and then runs the six diagnostic passes
// of lint/passes.h over the precomputed context.  Nothing executes: no
// court is petitioned, no byte is acquired.

#pragma once

#include <vector>

#include "legal/batch.h"
#include "legal/engine.h"
#include "lint/diagnostic.h"
#include "lint/plan.h"

namespace lexfor::lint {

// Per-step facts shared by all passes, computed once per lint run.
struct StepAnalysis {
  const PlanStep* step = nullptr;
  std::size_t order = 0;  // position in scheduled order

  // Acquisition steps: the engine's determination for the scenario.
  legal::Determination determination;
  // Resolved intended authority (the referenced application step), or
  // nullptr when none is planned / the reference is dangling.
  const PlanStep* authority = nullptr;
  legal::ProcessKind intended = legal::ProcessKind::kNone;

  // The planned acquisition would itself be unlawful: the intended
  // instrument is weaker than required, or used outside its window.
  bool defective = false;
  bool authority_expired = false;
  // Static taint (fruit of the poisonous tree) per suppression.h rules.
  bool tainted = false;
  // The step derives (transitively) from a step that cannot occur:
  // unknown parent, self-derivation, or a parent scheduled later.
  bool unreachable = false;
};

// Precomputed view of a plan.  Steps appear in scheduled order
// (scheduled_at, then insertion order), which is the order execution
// would visit them.
class PlanContext {
 public:
  PlanContext(const InvestigationPlan& plan,
              const legal::BatchEvaluator& engine);

  [[nodiscard]] const InvestigationPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const std::vector<StepAnalysis>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] const StepAnalysis* find(PlanStepId id) const;

  // Facts available strictly before `t`: the plan's initial facts plus
  // the yields of earlier acquisitions that are neither tainted nor
  // unreachable (facts from suppressible evidence cannot support a
  // process application).
  [[nodiscard]] std::vector<legal::Fact> facts_before(SimTime t) const;

 private:
  const InvestigationPlan& plan_;
  std::vector<StepAnalysis> steps_;
};

class PlanLinter {
 public:
  // Runs the six passes of lint/passes.h, in the order listed there,
  // and returns the sorted report.
  [[nodiscard]] LintReport lint(const InvestigationPlan& plan) const;

 private:
  // Evaluations go through the process-wide verdict cache, so linting
  // the same plan (or re-linting after an edit that leaves most steps
  // untouched) stops re-deriving identical determinations — and the
  // runtime's later Investigation::acquire calls hit the same entries.
  legal::BatchEvaluator engine_;
};

}  // namespace lexfor::lint
