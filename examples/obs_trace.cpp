// obs_trace: a full investigation rendered as a Chrome trace.
//
// Runs the pipeline — facts, court order, pen/trap capture on a
// simulated network, evidence custody, compliance verdicts, suppression
// audit — with the observability layer turned all the way up, and
// renders the tracer's ring as obs_trace.json in Chrome trace_event
// format.  Load it in
// chrome://tracing or https://ui.perfetto.dev to see custody, authority
// and acquisition events interleaved on the simulation timeline, plus a
// metrics summary on stdout.
//
// Also demonstrates the v2 surfaces: the call-site profiler is enabled
// for the run, the final obs::Snapshot is printed in Prometheus text
// exposition and written as obs_metrics.json, and a flight record of
// the run's last trace events is dumped to obs_flight.jsonl.
//
//   ./build/examples/obs_trace [output.json]

#include <fstream>
#include <iostream>

#include "capture/capture.h"
#include "evidence/locker.h"
#include "investigation/investigation.h"
#include "investigation/report.h"
#include "legal/engine.h"
#include "netsim/network.h"
#include "obs/obs.h"

using namespace lexfor;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "obs_trace.json";
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }

  // kDebug admits even per-packet events into the tracer's ring.
  obs::tracer().set_level(obs::Level::kDebug);

  // v2: profile the instrumented hot paths (engine evaluate, batch
  // fact-key+lookup, netsim event loop, ...) and arm the flight
  // recorder so the run leaves a last-N-events record behind.
  obs::profiler().set_enabled(true);
  obs::FlightRecorderConfig flight_cfg;
  flight_cfg.path = "obs_flight.jsonl";
  flight_cfg.last_events = 128;
  obs::flight_recorder().configure(flight_cfg);

  // --- the case -------------------------------------------------------
  investigation::Court court;
  investigation::Investigation inv(CaseId{7}, "pen/trap on a suspect ISP",
                                   legal::CrimeCategory::kFraud, court);
  inv.add_fact({legal::FactKind::kAccountLinked, 2.0,
                "fraudulent listings tie to the suspect's account"});
  inv.add_fact({legal::FactKind::kIpAddressLinked, 2.0,
                "session logs resolve to the suspect's ISP"});

  // What process does the acquisition need?  (Emits the audit verdict.)
  const auto scenario = legal::Scenario{}
                            .named("realtime addressing at the ISP")
                            .acquiring(legal::DataKind::kAddressing)
                            .located(legal::DataState::kInTransit)
                            .when(legal::Timing::kRealTime);
  const auto determination = legal::ComplianceEngine{}.evaluate(scenario);

  legal::ProcessScope scope;
  scope.data_kinds = {legal::DataKind::kAddressing};
  scope.locations = {"suspect-isp"};
  scope.crime = "wire fraud";
  const auto order = inv.apply_for(determination.required_process, scope,
                                   SimTime::zero());
  if (!order.ok()) {
    std::cerr << "court denied the application: " << order.status() << '\n';
    return 1;
  }

  // --- the tap --------------------------------------------------------
  netsim::Network net(42);
  const NodeId suspect = net.add_node("suspect");
  const NodeId isp = net.add_node("suspect-isp");
  const NodeId peer = net.add_node("remote-peer");
  netsim::LinkConfig link;
  link.latency = SimDuration::from_ms(5);
  (void)net.connect(suspect, isp, link).value();
  (void)net.connect(isp, peer, link).value();

  auto device = capture::CaptureDevice::create(
      capture::CaptureMode::kPenTrap, inv.authority(order.value()),
      determination.required_process, isp, "suspect-isp", net.now());
  if (!device.ok()) {
    std::cerr << "capture refused: " << device.status() << '\n';
    return 1;
  }
  auto tap = std::move(device).value();
  (void)tap.attach(net);

  // 20 packets of suspect traffic spread over two simulated seconds.
  for (int i = 0; i < 20; ++i) {
    netsim::PacketHeader header;
    header.src = (i % 2 == 0) ? suspect : peer;
    header.dst = (i % 2 == 0) ? peer : suspect;
    header.payload_size = 64;
    (void)net.send(FlowId{1}, header, Bytes(64, 0x5A));
    net.run_until(SimTime::from_ms(100 * (i + 1)));
  }
  net.run();

  // --- custody & audit ------------------------------------------------
  evidence::EvidenceLocker locker(to_bytes("case-7-key"));
  Bytes log;
  for (const auto& rec : tap.records()) {
    log.push_back(static_cast<unsigned char>(rec.header.payload_size));
  }
  const auto item = locker.deposit("pen/trap addressing log", log, "Agent V",
                                   net.now());
  (void)locker.record_examination(item, "Analyst W", "dialing-record review",
                                  net.now() + SimDuration::from_sec(60));

  const auto acq = inv.acquire(scenario, "pen/trap collection at the ISP",
                               inv.authority(order.value()));
  const auto audit = inv.admissibility_audit();

  // The case ran under the DES clock, so put the Chrome trace on the
  // simulation timeline.  A snapshot leaves the ring intact for the
  // flight record below.
  obs::write_chrome_trace(out, obs::tracer().ring().snapshot(),
                          obs::TimeBase::kSim);

  // --- summary --------------------------------------------------------
  std::cout << "case:       " << investigation::case_report(inv) << '\n';
  std::cout << "capture:    observed=" << tap.stats().packets_observed
            << " retained=" << tap.stats().packets_retained
            << " payload_bytes_retained="
            << tap.stats().payload_bytes_retained << " (pen/trap minimization)"
            << '\n';
  std::cout << "acquisition lawful: " << (acq.lawful ? "yes" : "no")
            << ", suppressed items: " << audit.suppressed_count << "\n\n";
  // One point-in-time snapshot feeds every export: Prometheus text on
  // stdout, JSON to obs_metrics.json.
  const obs::Snapshot snap = obs::Snapshot::capture();
  std::cout << "--- metrics (Prometheus exposition) ---\n";
  snap.to_prometheus(std::cout);
  std::ofstream metrics_out("obs_metrics.json");
  if (metrics_out) snap.to_json(metrics_out);

  // Explicit flight dump: the same JSONL record an error event or a
  // differential-check violation would have produced.
  const bool dumped = obs::dump_flight_record("obs_trace-demo");
  obs::flight_recorder().disarm();

  std::cout << "\ntrace events emitted: " << obs::tracer().ring().pushed()
            << "\nChrome trace written to " << out_path
            << " (load in chrome://tracing or ui.perfetto.dev)"
            << "\nmetrics snapshot written to obs_metrics.json\n";
  if (dumped) {
    std::cout << "flight record written to " << flight_cfg.path << '\n';
  }
  return 0;
}
