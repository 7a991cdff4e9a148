#include "lint/passes.h"

#include <algorithm>
#include <sstream>

namespace lexfor::lint {
namespace {

Diagnostic make(Severity severity, std::string_view rule,
                const PlanStep& step, std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.rule = std::string(rule);
  d.step = step.id;
  d.step_name = step.name;
  d.message = std::move(message);
  return d;
}

void cite(Diagnostic& d, std::initializer_list<const char*> ids) {
  for (const char* id : ids) {
    if (std::find(d.citations.begin(), d.citations.end(), id) ==
        d.citations.end()) {
      d.citations.emplace_back(id);
    }
  }
}

}  // namespace

void missing_process(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kAcquisition) continue;
    if (!a.determination.needs_process) continue;
    if (legal::satisfies(a.intended, a.determination.required_process)) {
      continue;
    }

    std::ostringstream os;
    os << "step intends "
       << (a.intended == legal::ProcessKind::kNone && !step.uses_authority.valid()
               ? std::string("no process")
               : std::string(legal::to_string(a.intended)))
       << " but the acquisition requires at least a "
       << legal::to_string(a.determination.required_process);
    if (step.uses_authority.valid() && a.authority == nullptr) {
      os << " (the referenced instrument is never applied for in this plan)";
    }
    Diagnostic d = make(Severity::kError, kRuleMissingProcess, step, os.str());
    d.rationale = a.determination.rationale;
    d.citations = a.determination.citations;
    out.push_back(std::move(d));
  }
}

void expired_authority(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kAcquisition) continue;
    if (a.authority == nullptr || !a.authority_expired) continue;

    const auto in_days = [](SimTime t) { return t.seconds() / 86400.0; };
    std::ostringstream os;
    const SimTime expiry = a.authority->scheduled_at + a.authority->validity;
    if (step.scheduled_at < a.authority->scheduled_at) {
      os << "step is scheduled at day " << in_days(step.scheduled_at)
         << ", before the instrument it relies on is even applied for (day "
         << in_days(a.authority->scheduled_at) << ")";
    } else {
      os << "step is scheduled at day " << in_days(step.scheduled_at)
         << " but the instrument expires at day " << in_days(expiry);
    }
    Diagnostic d =
        make(Severity::kError, kRuleExpiredAuthority, step, os.str());
    d.rationale.emplace_back(
        "an instrument authorizes acquisitions only inside its validity "
        "window; Rule 41 warrants must be executed within 14 days");
    cite(d, {"sgro-1932", "zimmerman-2002"});
    out.push_back(std::move(d));
  }
}

void poisonous_tree(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kAcquisition || step.derived_from.empty()) {
      continue;
    }
    if (a.unreachable || a.defective) continue;  // flagged elsewhere

    bool all_parents_tainted = true;
    bool any_parent_tainted = false;
    for (const auto parent_id : step.derived_from) {
      const StepAnalysis* parent = ctx.find(parent_id);
      const bool pt = parent != nullptr && parent->tainted;
      all_parents_tainted = all_parents_tainted && pt;
      any_parent_tainted = any_parent_tainted || pt;
    }
    if (!any_parent_tainted) continue;

    if (a.tainted) {
      Diagnostic d = make(
          Severity::kError, kRulePoisonousTree, step,
          "every source of this step is tainted; the evidence it yields "
          "would be suppressed as fruit of the poisonous tree");
      d.rationale.emplace_back(
          "the plan derives this step only from acquisitions that are "
          "themselves unlawful as planned");
      cite(d, {"silverthorne-1920", "wong-sun-1963"});
      out.push_back(std::move(d));
    } else if (all_parents_tainted) {
      // Saved by an annotation: surface the reliance as a note so the
      // team knows the claim must hold up at the hearing.
      Diagnostic d = make(
          Severity::kNote, kRulePoisonousTree, step,
          step.independent_source
              ? "derives only from tainted steps but claims an independent "
                "lawful source; admissibility rests on proving that claim"
              : "derives only from tainted steps but claims inevitable "
                "discovery; admissibility rests on proving that claim");
      cite(d, step.independent_source
                  ? std::initializer_list<const char*>{"murray-1988"}
                  : std::initializer_list<const char*>{"nix-1984"});
      out.push_back(std::move(d));
    }
    // A mix of tainted and clean parents needs no diagnostic: one lawful
    // independent source keeps the evidence admissible.
  }
}

void standing_mismatch(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  const std::string& suspect = ctx.plan().charged_suspect();
  if (suspect.empty()) return;
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kAcquisition || !a.defective) continue;
    if (step.aggrieved_party.empty() || step.aggrieved_party == suspect) {
      continue;
    }

    std::ostringstream os;
    os << "the planned violation invades " << step.aggrieved_party
       << "'s rights, not " << suspect
       << "'s; suppression standing never attaches to the charged suspect";
    Diagnostic d =
        make(Severity::kWarning, kRuleStandingMismatch, step, os.str());
    d.rationale.emplace_back(
        "the evidence would likely survive the suspect's motion to "
        "suppress, but the acquisition is still unlawful as planned and "
        "exposes the team to liability to the aggrieved party");
    cite(d, {"rakas-1978"});
    out.push_back(std::move(d));
  }
}

void unreachable_step(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kAcquisition || !a.unreachable) continue;

    std::ostringstream os;
    os << "step derives from a step that cannot occur:";
    for (const auto parent_id : step.derived_from) {
      const StepAnalysis* parent = ctx.find(parent_id);
      if (parent_id == step.id) {
        os << " derives from itself;";
      } else if (parent == nullptr) {
        os << " parent " << parent_id << " is not in the plan;";
      } else if (!(parent->step->scheduled_at < step.scheduled_at)) {
        os << " parent '" << parent->step->name
           << "' is scheduled at or after this step;";
      } else if (parent->unreachable) {
        os << " parent '" << parent->step->name << "' is itself unreachable;";
      }
    }
    Diagnostic d = make(Severity::kError, kRuleUnreachableStep, step, os.str());
    d.rationale.emplace_back(
        "evidence cannot be derived from an acquisition that will not "
        "have happened; reorder the plan or fix the derivation edge");
    out.push_back(std::move(d));
  }
}

void proof_gap(const PlanContext& ctx, std::vector<Diagnostic>& out) {
  for (const auto& a : ctx.steps()) {
    const PlanStep& step = *a.step;
    if (step.kind != StepKind::kApplication) continue;
    const legal::StandardOfProof needed =
        legal::required_standard(step.requested);
    const legal::ProofAssessment have = legal::assess_proof(
        ctx.facts_before(step.scheduled_at), ctx.plan().category());
    if (legal::satisfies(have.standard, needed)) continue;

    std::ostringstream os;
    os << "application for a " << legal::to_string(step.requested)
       << " is scheduled while the fact set supports only "
       << legal::to_string(have.standard) << " (needs "
       << legal::to_string(needed) << ")";
    Diagnostic d = make(Severity::kError, kRuleProofGap, step, os.str());
    d.rationale = have.notes;
    d.rationale.emplace_back(
        "facts yielded by tainted or unreachable steps are excluded from "
        "the showing; gather lawful facts before applying");
    d.citations = have.citations;
    cite(d, {"franks-1978", "gates-1983"});
    out.push_back(std::move(d));
  }
}

}  // namespace lexfor::lint
