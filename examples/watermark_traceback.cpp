// End-to-end reproduction of the paper's §IV.B "situation one":
// tracing a client of a seized contraband server through an anonymity
// network with a long-PN-code DSSS watermark — under a court order, not
// a wiretap.

#include <cstdio>

#include "investigation/investigation.h"
#include "tornet/traceback.h"

int main() {
  using namespace lexfor;

  // --- the legal groundwork first ---------------------------------------
  investigation::Court court;
  investigation::Investigation inv(CaseId{2}, "anonymity-network traceback",
                                   legal::CrimeCategory::kChildExploitation,
                                   court);
  inv.add_fact({legal::FactKind::kContrabandObserved, 1.0,
                "seized web server hosts contraband; subscriber list found"});
  inv.add_fact({legal::FactKind::kAccountLinked, 1.0,
                "an account on the server downloads through an anonymity "
                "network"});

  // What does the engine say the collection step needs?
  const auto determination =
      legal::ComplianceEngine{}.evaluate(tornet::collection_scenario());
  std::printf("collection step requires: %s\n",
              std::string(legal::to_string(determination.required_process))
                  .c_str());

  legal::ProcessScope scope;
  scope.data_kinds = {legal::DataKind::kAddressing};
  scope.locations = {"suspect-isp"};
  scope.crime = "receipt of child pornography";
  const auto order = inv.apply_for(legal::ProcessKind::kCourtOrder, scope,
                                   SimTime::zero());
  if (!order.ok()) {
    std::printf("court order denied: %s\n", order.status().message().c_str());
    return 1;
  }
  std::printf("pen/trap court order issued\n\n");

  // --- the technical experiment ------------------------------------------
  tornet::TracebackConfig cfg;
  cfg.pn_degree = 10;  // 1023 chips — a "long" PN code
  cfg.chip_ms = 350.0;
  cfg.depth = 0.3;
  cfg.base_rate_pps = 150.0;
  cfg.num_decoys = 7;
  cfg.seed = 424242;

  const auto result = tornet::run_streaming_traceback(cfg).value();
  std::printf("watermark despread at the suspect's ISP:\n");
  std::printf("  suspect flow:  corr %.4f vs threshold %.4f -> %s\n",
              result.suspect_correlation,
              result.flows[0].detection.threshold,
              result.suspect_detected ? "DETECTED" : "missed");
  std::printf("  decoy flows:   %zu of %zu crossed the threshold "
              "(max corr %.4f)\n\n",
              result.decoys_flagged, cfg.num_decoys,
              result.max_decoy_correlation);

  // --- record the acquisition and audit ------------------------------------
  const auto rates = inv.acquire(tornet::collection_scenario(),
                                 "per-flow packet rates at the suspect ISP",
                                 inv.authority(order.value()));
  std::printf("rate collection lawful: %s\n", rates.lawful ? "yes" : "no");

  const auto audit = inv.admissibility_audit();
  std::printf("admissibility audit: %zu admissible, %zu suppressed\n",
              audit.admissible_count, audit.suppressed_count);

  // The contrast the paper draws: the same collection attempted WITHOUT
  // any process would be suppressed.
  investigation::Investigation rogue(CaseId{3}, "the cautionary tale",
                                     legal::CrimeCategory::kChildExploitation,
                                     court);
  const auto bad = rogue.acquire(tornet::collection_scenario(),
                                 "rate collection with no legal process",
                                 legal::GrantedAuthority{});
  const auto rogue_audit = rogue.admissibility_audit();
  std::printf("\nthe same collection without a court order: %s\n",
              rogue_audit.is_suppressed(bad.evidence)
                  ? "SUPPRESSED (as the paper warns)"
                  : "admissible (wrong!)");

  return result.suspect_detected && result.decoys_flagged == 0 ? 0 : 1;
}
