// The §IV.B traceback experiment, end to end.
//
// Situation one from the paper: a seized web server hosts contraband;
// many clients reach it through an anonymity network.  With a court
// order (NOT a wiretap — only non-content rates are collected at the
// suspect's ISP), investigators modulate the server's transmission rate
// with a long PN code and look for the code in the per-client arrival
// rates.  The client whose rate despreads above threshold is the
// suspect.  Decoy flows (other clients, unmarked) measure the
// false-positive behaviour.

#pragma once

#include <vector>

#include "legal/engine.h"
#include "tornet/anonymity_network.h"
#include "watermark/correlate.h"

namespace lexfor::tornet {

struct TracebackConfig {
  TorConfig network;
  int pn_degree = 9;               // code length 2^degree - 1
  double chip_ms = 400.0;          // chip duration, at least 0.001 (1 us)
  double depth = 0.35;             // rate modulation depth
  double base_rate_pps = 120.0;    // server flow rate toward each client
  std::size_t num_decoys = 8;      // concurrent unmarked client flows
  double threshold_sigmas = 5.0;
  std::uint64_t seed = 7;
  // The flow simulation's fan-out width (util::parallel_for); 0 = one
  // per hardware thread.  Each flow runs in one fused pass
  // (tornet::simulate_flow_bins); at 1 they all run inline on the
  // calling thread.  Detection always runs serially on the calling
  // thread: one aligned despread per flow takes microseconds.  The
  // result is bit-identical for every thread count: flow i draws only
  // from the counter-derived stream Rng::sub_stream(seed, i), so its
  // packets do not depend on how many other flows exist or which thread
  // runs it (see EXPERIMENTS.md for the one-time output shift this
  // re-seeding caused).
  unsigned detect_threads = 0;
};

struct FlowVerdict {
  bool is_suspect = false;           // ground truth
  watermark::DetectionResult detection;
};

struct TracebackResult {
  std::vector<FlowVerdict> flows;    // suspect first, then decoys
  bool suspect_detected = false;
  std::size_t decoys_flagged = 0;
  double suspect_correlation = 0.0;
  double max_decoy_correlation = 0.0;
  // Legal posture of the collection step (non-content at the ISP): the
  // engine must report a court order suffices, matching §IV.B.
  legal::Determination collection_legality;
};

// The legal scenario for the collection side: real-time non-content rate
// observation at the suspect's ISP.
[[nodiscard]] legal::Scenario collection_scenario();

// Runs the full experiment: builds circuits, generates the marked flow
// and decoys, carries them through the network, bins arrivals at the
// "ISP", and despreads each candidate.  Circuits are built on the
// calling thread in flow order; the flows are then simulated in
// parallel (TracebackConfig::detect_threads), all of them in ONE
// simulation pass.  Detection runs through a stream::TapRegistry — one
// legally-admitted TapSession per candidate flow, each flow's bins
// pushed one at a time exactly as a live ISP tap would see them, with
// the verdict available the moment the code period completes.  Each
// tap's admission runs the §IV.B collection posture through the legal
// engine under an internally-constructed court order BEFORE any tap
// state exists.  Every flow verdict is bit-identical to simulating that
// flow on its own (generate_modulated_poisson -> transit ->
// bin_arrivals) and despreading it with CorrelationKernel::scan at
// max_offset 0, whatever detect_threads is.  Safe to call from several
// threads at once.  A chip shorter than 1 us, or a chip, rate or depth
// that is not finite, is InvalidArgument.
[[nodiscard]] Result<TracebackResult> run_streaming_traceback(
    const TracebackConfig& config);

// --- multi-flow variant (Gold codes) ------------------------------------
//
// Situation: the seized server talks to MANY accounts at once.  Each
// account's server-side flow is marked with its own Gold code; the ISP
// observes ONE client's arrivals and despreads under every code.  The
// code that fires identifies which account the observed client is.

struct MultiflowConfig {
  TorConfig network;
  int gold_degree = 9;            // family of 2^degree + 1 codes
  std::size_t num_accounts = 8;   // concurrently marked flows
  std::size_t true_account = 3;   // which account the observed client is
  double chip_ms = 400.0;         // at least 0.001 (1 us)
  double depth = 0.35;
  double base_rate_pps = 120.0;
  double threshold_sigmas = 5.0;
  std::uint64_t seed = 7;
};

struct MultiflowResult {
  // Despread correlation per account code, for the observed client.
  std::vector<double> correlations;
  std::size_t identified_account = 0;  // argmax correlation
  bool correct = false;                // identified == true_account
  bool above_threshold = false;        // the winning despread fired
  double margin = 0.0;                 // winner corr minus runner-up corr
};

// Simulates the observed client's flow once, then despreads it at
// offset 0 under every account's code as one family scan
// (watermark::ScanBatch) on the calling thread.  Each correlation is
// bit-identical to CorrelationKernel::scan(rates, 0) for that account.
// A chip shorter than 1 us, or a chip, rate or depth that is not finite,
// is InvalidArgument.
[[nodiscard]] Result<MultiflowResult> run_multiflow_traceback(
    const MultiflowConfig& config);

}  // namespace lexfor::tornet
