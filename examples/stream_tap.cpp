// Live streaming ISP tap (§IV.B, but online): the investigator's box
// at the suspect's ISP bins arrivals as they happen and despreads the
// PN watermark incrementally — bounded memory, verdict available the
// moment one code period has been observed, and bit-identical to the
// batch detector the courtroom analysis would re-run.
//
// The legal gate comes first: the tap object cannot even be
// constructed unless the held process covers the collection scenario.
//
// Act two widens the lens: a stream::TapRegistry taps EVERY candidate
// suspect behind the ISP at once — per-suspect legal admission, one
// simulation pass — which is how run_streaming_traceback avoids
// re-simulating the network per suspect.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "netsim/flow.h"
#include "stream/tap_registry.h"
#include "stream/tap_session.h"
#include "watermark/dsss.h"
#include "watermark/pn_code.h"

int main() {
  using namespace lexfor;

  // --- the marked flow --------------------------------------------------
  // The seized server modulates its send rate with a 63-chip PN code.
  const auto code = watermark::PnCode::m_sequence(6).value();
  const watermark::CorrelationKernel kernel(code);
  const SimDuration chip = SimDuration::from_ms(200.0);

  netsim::Network net(2026);
  const auto server = net.add_node("seized-server");
  const auto isp = net.add_node("suspect-isp");
  const auto suspect = net.add_node("suspect");
  (void)net.connect(server, isp);
  (void)net.connect(isp, suspect);

  watermark::EmbedParams ep;
  ep.start = SimTime::zero();
  ep.chip_duration = chip;
  ep.depth = 0.4;
  const watermark::Embedder embedder(code, ep);

  netsim::FlowConfig fc;
  fc.id = FlowId{1};
  fc.src = server;
  fc.dst = suspect;
  fc.packets_per_sec = 180.0;
  fc.stop = embedder.end();
  netsim::FlowSource flow(net, fc, netsim::ArrivalProcess::kPoisson, 7,
                          [&embedder](SimTime t) {
                            return embedder.multiplier(t);
                          });

  // --- the legal gate ---------------------------------------------------
  // Non-content rate collection in real time: pen/trap territory, so a
  // court order suffices (the paper's central point — no wiretap order
  // is needed to despread rates).
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30 * 24 * 3600.0);

  stream::TapSessionConfig cfg;
  cfg.scenario = legal::Scenario{}
                     .named("streaming rate collection at the suspect's ISP")
                     .by(legal::ActorKind::kLawEnforcement)
                     .acquiring(legal::DataKind::kAddressing)
                     .located(legal::DataState::kInTransit)
                     .when(legal::Timing::kRealTime);
  cfg.authority = legal::GrantedAuthority{order};
  cfg.target = suspect;
  cfg.ring.start = SimTime::zero();
  cfg.ring.bin_width = chip;  // bin == chip: aligned despread
  cfg.ring.capacity = code.length() + 8;

  // A content grab under the SAME court order must refuse to exist.
  auto overreach = cfg;
  overreach.scenario = overreach.scenario
                           .named("full-content intercept, court order only")
                           .acquiring(legal::DataKind::kContent);
  const auto refused = stream::TapSession::create(kernel, overreach);
  std::printf("content intercept under a court order: %s\n",
              refused.ok() ? "ADMITTED (bug!)"
                           : refused.status().message().c_str());

  auto session_r = stream::TapSession::create(kernel, cfg);
  if (!session_r.ok()) {
    std::printf("tap refused: %s\n", session_r.status().message().c_str());
    return 1;
  }
  auto session = std::move(session_r).value();
  std::printf("rate tap admitted (required process: %s)\n\n",
              std::string(legal::to_string(session.admission().required_process))
                  .c_str());

  // --- run the tap live -------------------------------------------------
  if (!session.attach(net).ok()) return 1;
  flow.start();
  net.run();
  session.pump(net.now() + chip);  // flush the final chip bin

  const auto& v = session.verdict();
  std::printf("packets seen        : %llu\n",
              static_cast<unsigned long long>(session.stats().packets_seen));
  std::printf("bins scored         : %llu (ring capacity %zu — bounded)\n",
              static_cast<unsigned long long>(session.stats().bins_scored),
              session.ring().capacity());
  std::printf("watermark detected  : %s\n",
              v.scan.best.detected ? "YES" : "no");
  std::printf("correlation         : %.4f (threshold %.4f)\n",
              v.scan.best.correlation, v.scan.best.threshold);
  if (!v.scan.best.detected) return 1;

  // --- act two: every suspect at once, one pass -------------------------
  // Three candidates behind the ISP; only suspect-0's flow carries the
  // watermark.  One TapRegistry admits each tap through the verdict
  // cache, and one net.run() scores all three.
  std::printf("\n-- multi-suspect registry: one pass, all candidates --\n");
  netsim::Network net2(2027);
  const auto server2 = net2.add_node("seized-server");
  const auto isp2 = net2.add_node("suspect-isp");
  (void)net2.connect(server2, isp2);

  stream::TapRegistry registry;
  std::vector<NodeId> candidates;
  std::vector<std::unique_ptr<netsim::FlowSource>> flows;
  for (int i = 0; i < 3; ++i) {
    const auto node = net2.add_node("candidate" + std::to_string(i));
    (void)net2.connect(isp2, node);
    candidates.push_back(node);

    auto tap_cfg = cfg;
    tap_cfg.target = node;
    if (!registry.add_tap(kernel, tap_cfg).ok()) return 1;

    netsim::FlowConfig fc2 = fc;
    fc2.id = FlowId{static_cast<std::uint32_t>(i + 10)};
    fc2.src = server2;
    fc2.dst = node;
    // Only candidate 0 gets the marked flow; the rest are decoys.
    flows.push_back(
        i == 0 ? std::make_unique<netsim::FlowSource>(
                     net2, fc2, netsim::ArrivalProcess::kPoisson, 7,
                     [&embedder](SimTime t) { return embedder.multiplier(t); })
               : std::make_unique<netsim::FlowSource>(
                     net2, fc2, netsim::ArrivalProcess::kPoisson, 7 + i));
  }
  if (!registry.attach_all(net2).ok()) return 1;
  for (auto& f : flows) f->start();
  net2.run();  // the ONE simulation pass
  registry.pump_all(net2.now() + chip);

  bool marked_found = false, decoy_flagged = false;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto& tap = registry.tap(i);
    const auto& scan = tap.verdict().scan;
    std::printf("candidate%zu: corr %+.4f vs %.4f -> %s\n", i,
                scan.best.correlation, scan.best.threshold,
                scan.best.detected ? "WATERMARKED" : "clean");
    if (i == 0) marked_found = scan.best.detected;
    else decoy_flagged = decoy_flagged || scan.best.detected;
  }
  const auto agg = registry.aggregate_ring_stats();
  std::printf("registry: %zu taps, %llu refused, %llu bins recorded\n",
              registry.size(),
              static_cast<unsigned long long>(registry.refused()),
              static_cast<unsigned long long>(agg.recorded));
  return marked_found && !decoy_flagged ? 0 : 1;
}
