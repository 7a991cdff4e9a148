// A-ENGINE: compliance-engine throughput.
//
// The engine sits on every acquisition path (capture devices, provider
// disclosure, disk examination), so determinations must be cheap.  This
// measures evaluations/second over the Table-1 scenes and over
// randomized scenarios covering the whole input space, and the two
// scenario identities: the FactKey both verdict caches look up and the
// SHA-256 audit fingerprint.

#include <benchmark/benchmark.h>

#include <vector>

#include "legal/batch.h"
#include "legal/caselaw.h"
#include "legal/engine.h"
#include "legal/fact_key.h"
#include "legal/scene_table.h"
#include "legal/table1.h"
#include "util/rng.h"

namespace {

using namespace lexfor;
using namespace lexfor::legal;

void BM_EvaluateTable1Scene(benchmark::State& state) {
  ComplianceEngine engine;
  const auto& scene = table1::scene(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(scene.scenario));
  }
}
BENCHMARK(BM_EvaluateTable1Scene)->DenseRange(1, 20, 5);

Scenario random_scenario(Rng& rng) {
  Scenario s;
  s.actor = static_cast<ActorKind>(rng.uniform(4));
  s.data = static_cast<DataKind>(rng.uniform(4));
  s.state = static_cast<DataState>(rng.uniform(4));
  s.timing = static_cast<Timing>(rng.uniform(2));
  s.provider = static_cast<ProviderClass>(rng.uniform(4));
  s.consent = static_cast<ConsentKind>(rng.uniform(10));
  s.knowingly_exposed_to_public = rng.bernoulli(0.2);
  s.shared_with_third_party = rng.bernoulli(0.2);
  s.delivered_to_recipient = rng.bernoulli(0.2);
  s.readily_accessible_to_public = rng.bernoulli(0.2);
  s.exigent_circumstances = rng.bernoulli(0.1);
  s.in_plain_view = rng.bernoulli(0.1);
  s.target_on_probation = rng.bernoulli(0.1);
  s.is_victim_system = rng.bernoulli(0.1);
  s.message_opened_by_recipient = rng.bernoulli(0.3);
  s.contents_previously_lawfully_acquired = rng.bernoulli(0.1);
  return s;
}

void BM_EvaluateRandomScenarios(benchmark::State& state) {
  ComplianceEngine engine;
  Rng rng{42};
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 1024; ++i) scenarios.push_back(random_scenario(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(scenarios[i & 1023]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvaluateRandomScenarios);

void BM_DeterminationReport(benchmark::State& state) {
  ComplianceEngine engine;
  const auto d = engine.evaluate(table1::scene(18).scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.report());
  }
}
BENCHMARK(BM_DeterminationReport);

// The verdict server's scenario mix: Table-1 rows, then library scenes.
std::vector<Scenario> fleet_scenes() {
  std::vector<Scenario> out;
  for (const auto& scene : table1::all_scenes()) out.push_back(scene.scenario);
  for (const auto& d : library::scenes()) out.push_back(d.build());
  return out;
}

void BM_FactKey(benchmark::State& state) {
  const std::vector<Scenario> scenes = fleet_scenes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fact_key(scenes[i]));
    if (++i == scenes.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FactKey);

void BM_Fingerprint(benchmark::State& state) {
  const std::vector<Scenario> scenes = fleet_scenes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fingerprint(scenes[i]));
    if (++i == scenes.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fingerprint);

void BM_CaseLawLookup(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_case("katz-1967"));
    benchmark::DoNotOptimize(find_case("sloane-2008"));
  }
}
BENCHMARK(BM_CaseLawLookup);

}  // namespace

BENCHMARK_MAIN();
