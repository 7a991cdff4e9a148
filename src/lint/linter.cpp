#include "lint/linter.h"

#include <algorithm>
#include <unordered_map>

#include "lint/passes.h"

namespace lexfor::lint {

PlanContext::PlanContext(const InvestigationPlan& plan,
                         const legal::BatchEvaluator& engine)
    : plan_(plan) {
  // Visit steps in the order execution would: by scheduled time, ties
  // broken by insertion order.
  std::vector<std::size_t> order(plan.steps().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return plan.steps()[a].scheduled_at < plan.steps()[b].scheduled_at;
  });

  steps_.reserve(order.size());
  std::unordered_map<PlanStepId, const StepAnalysis*> done;

  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const PlanStep& step = plan.steps()[order[pos]];
    StepAnalysis a;
    a.step = &step;
    a.order = pos;

    if (step.kind == StepKind::kAcquisition) {
      a.determination = engine.evaluate(step.scenario);

      // Resolve the intended authority.
      if (step.uses_authority.valid()) {
        const PlanStep* app = plan.find(step.uses_authority);
        if (app != nullptr && app->kind == StepKind::kApplication) {
          a.authority = app;
          a.intended = app->requested;
          // Outside the instrument's validity window: before it can be
          // granted, or after it expires.
          a.authority_expired =
              step.scheduled_at < app->scheduled_at ||
              step.scheduled_at > app->scheduled_at + app->validity;
        }
      }

      const bool insufficient =
          a.determination.needs_process &&
          !legal::satisfies(a.intended, a.determination.required_process);
      // Relying on an instrument outside its window is as unlawful as
      // holding none, but only matters when process is needed at all.
      a.defective = insufficient ||
                    (a.determination.needs_process && a.authority_expired);

      // Reachability: every parent must exist, not be the step itself,
      // be scheduled strictly earlier, and itself be reachable.
      for (const auto parent_id : step.derived_from) {
        const auto it = done.find(parent_id);
        if (parent_id == step.id || it == done.end()) {
          a.unreachable = true;
          break;
        }
        const StepAnalysis& parent = *it->second;
        if (!(parent.step->scheduled_at < step.scheduled_at) ||
            parent.unreachable) {
          a.unreachable = true;
          break;
        }
      }

      // Static taint closure, mirroring legal/suppression.h: directly
      // unlawful steps are tainted; a derived step is tainted only when
      // EVERY parent is tainted (independent source keeps it alive)
      // and neither cleansing annotation applies.
      if (a.defective) {
        a.tainted = true;
      } else if (!step.derived_from.empty() && !a.unreachable) {
        bool all_parents_tainted = true;
        for (const auto parent_id : step.derived_from) {
          all_parents_tainted =
              all_parents_tainted && done.at(parent_id)->tainted;
        }
        a.tainted = all_parents_tainted && !step.independent_source &&
                    !step.inevitable_discovery;
      }
    }

    steps_.push_back(std::move(a));
    done.emplace(step.id, &steps_.back());
  }
}

const StepAnalysis* PlanContext::find(PlanStepId id) const {
  for (const auto& a : steps_) {
    if (a.step->id == id) return &a;
  }
  return nullptr;
}

std::vector<legal::Fact> PlanContext::facts_before(SimTime t) const {
  std::vector<legal::Fact> facts = plan_.initial_facts();
  for (const auto& a : steps_) {
    if (a.step->kind != StepKind::kAcquisition) continue;
    if (!(a.step->scheduled_at < t)) continue;
    if (a.tainted || a.unreachable) continue;
    facts.insert(facts.end(), a.step->yields_facts.begin(),
                 a.step->yields_facts.end());
  }
  return facts;
}

LintReport PlanLinter::lint(const InvestigationPlan& plan) const {
  const PlanContext ctx(plan, engine_);

  LintReport report;
  report.plan_title = plan.title();
  for (const auto pass : {missing_process, expired_authority, poisonous_tree,
                          standing_mismatch, unreachable_step, proof_gap}) {
    pass(ctx, report.diagnostics);
  }

  // Deterministic order: offending step's scheduled position, then
  // severity (errors first), then rule id.
  std::unordered_map<PlanStepId, std::size_t> position;
  for (const auto& a : ctx.steps()) position.emplace(a.step->id, a.order);
  std::stable_sort(
      report.diagnostics.begin(), report.diagnostics.end(),
      [&](const Diagnostic& x, const Diagnostic& y) {
        const std::size_t px = position.count(x.step) ? position.at(x.step) : 0;
        const std::size_t py = position.count(y.step) ? position.at(y.step) : 0;
        if (px != py) return px < py;
        if (x.severity != y.severity) return x.severity > y.severity;
        return x.rule < y.rule;
      });

  for (const auto& d : report.diagnostics) {
    switch (d.severity) {
      case Severity::kError: ++report.error_count; break;
      case Severity::kWarning: ++report.warning_count; break;
      case Severity::kNote: ++report.note_count; break;
    }
  }
  return report;
}

}  // namespace lexfor::lint
