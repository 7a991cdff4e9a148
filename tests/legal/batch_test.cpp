#include "legal/batch.h"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "legal/table1.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace lexfor::legal {
namespace {

// Field-by-field equality: Determination carries no operator==, and the
// batch contract is bit-identical output, not "same verdict".
void expect_identical(const Determination& a, const Determination& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  EXPECT_EQ(a.needs_process, b.needs_process);
  EXPECT_EQ(a.required_process, b.required_process);
  EXPECT_EQ(a.required_proof, b.required_proof);
  EXPECT_EQ(a.governing_statutes, b.governing_statutes);
  EXPECT_EQ(a.exceptions_applied, b.exceptions_applied);
  EXPECT_EQ(a.rationale, b.rationale);
  EXPECT_EQ(a.citations, b.citations);
  EXPECT_EQ(a.report(), b.report());
}

// Whether `evaluator` answers `s` from the entry cached for its facts,
// told without obs counters so it holds with LEXFOR_OBS=OFF too: the
// entry is marked, `s` is asked again and the entry is put back.  A hit
// hands back the marked entry; a miss derives a fresh, unmarked one.
[[nodiscard]] bool answered_from_cache(const BatchEvaluator& evaluator,
                                       const Scenario& s) {
  VerdictCache& cache = evaluator.cache();
  const FactKey key = fact_key(s);
  const std::optional<Determination> entry = cache.get(key);
  if (!entry) return false;
  Determination marked = *entry;
  marked.citations.emplace_back("cache entry mark");
  cache.put(key, marked);
  const bool hit = evaluator.evaluate(s).citations == marked.citations;
  cache.put(key, *entry);
  return hit;
}

// The randomized workload the engine microbench uses, reproduced here
// under a fixed seed so serial and parallel runs see identical inputs.
Scenario random_scenario(Rng& rng, int i) {
  Scenario s;
  s.name = "fuzz-" + std::to_string(i % 64);  // repeats: cacheable
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

TEST(ScenarioFingerprintTest, StableForEqualScenarios) {
  const Scenario a = table1::scene(7).scenario;
  const Scenario b = table1::scene(7).scenario;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(fingerprint_hex(a), fingerprint_hex(b));
  EXPECT_EQ(fingerprint_hex(a).size(), 64u);
}

TEST(ScenarioFingerprintTest, DistinguishesEveryField) {
  // Flip every Scenario field in turn; each flip must move the digest,
  // otherwise two legally distinct scenarios would collide in the
  // verdict cache.
  const Scenario base;
  using Mutator = void (*)(Scenario&);
  const Mutator mutators[] = {
      [](Scenario& s) { s.name = "renamed"; },
      [](Scenario& s) { s.actor = ActorKind::kPrivateParty; },
      [](Scenario& s) { s.acting_under_color_of_law = true; },
      [](Scenario& s) { s.data = DataKind::kAddressing; },
      [](Scenario& s) { s.state = DataState::kOnDevice; },
      [](Scenario& s) { s.timing = Timing::kStored; },
      [](Scenario& s) { s.knowingly_exposed_to_public = true; },
      [](Scenario& s) { s.shared_with_third_party = true; },
      [](Scenario& s) { s.delivered_to_recipient = true; },
      [](Scenario& s) { s.inside_home = true; },
      [](Scenario& s) { s.via_sense_enhancing_tech = true; },
      [](Scenario& s) { s.tech_in_general_public_use = true; },
      [](Scenario& s) { s.readily_accessible_to_public = true; },
      [](Scenario& s) { s.encrypted = true; },
      [](Scenario& s) { s.provider = ProviderClass::kEcs; },
      [](Scenario& s) { s.message_opened_by_recipient = true; },
      [](Scenario& s) { s.consent = ConsentKind::kOwnerConsent; },
      [](Scenario& s) { s.consent_revoked = true; },
      [](Scenario& s) { s.target_area_password_protected = true; },
      [](Scenario& s) { s.is_victim_system = true; },
      [](Scenario& s) { s.targets_attacker_system = true; },
      [](Scenario& s) { s.exigent_circumstances = true; },
      [](Scenario& s) { s.in_plain_view = true; },
      [](Scenario& s) { s.target_on_probation = true; },
      [](Scenario& s) { s.emergency_pen_trap = true; },
      [](Scenario& s) { s.provider_self_protection = true; },
      [](Scenario& s) { s.jurisdiction = "CA"; },
      [](Scenario& s) { s.device_lawfully_in_custody = true; },
      [](Scenario& s) { s.contents_previously_lawfully_acquired = true; },
      [](Scenario& s) { s.credentials_lawfully_obtained = true; },
      [](Scenario& s) { s.target_arrested = true; },
  };
  const ScenarioFingerprint baseline = fingerprint(base);
  for (std::size_t i = 0; i < std::size(mutators); ++i) {
    Scenario mutated = base;
    mutators[i](mutated);
    EXPECT_NE(fingerprint(mutated), baseline)
        << "mutator " << i << " did not change the fingerprint";
  }
}

TEST(ScenarioFingerprintTest, LengthPrefixPreventsStringSplicing) {
  // "ab" + jurisdiction "c" must not collide with "a" + "bc": the
  // canonical serialization length-prefixes every string field.
  Scenario a;
  a.name = "ab";
  a.jurisdiction = "c";
  Scenario b;
  b.name = "a";
  b.jurisdiction = "bc";
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(BatchEvaluatorTest, SingleEvaluationMatchesSerialEngine) {
  const ComplianceEngine engine;
  const BatchEvaluator cached{BatchOptions{.use_shared_cache = false}};
  for (const auto& scene : table1::all_scenes()) {
    // Twice: once cold (miss path), once warm (hit path) — both must
    // be indistinguishable from the raw engine.
    expect_identical(cached.evaluate(scene.scenario),
                     engine.evaluate(scene.scenario));
    expect_identical(cached.evaluate(scene.scenario),
                     engine.evaluate(scene.scenario));
  }
}

TEST(BatchEvaluatorTest, ParallelBatchBitIdenticalToSerialOnTable1) {
  // Full Table-1 library, repeated, shuffled under a fixed Rng seed so
  // the workload is reproducible and cache hits interleave with misses.
  std::vector<Scenario> batch;
  for (int repeat = 0; repeat < 8; ++repeat) {
    for (const auto& scene : table1::all_scenes()) {
      batch.push_back(scene.scenario);
    }
  }
  Rng rng{2026};
  rng.shuffle(batch);

  const ComplianceEngine engine;
  std::vector<Determination> serial;
  serial.reserve(batch.size());
  for (const auto& s : batch) serial.push_back(engine.evaluate(s));

  const BatchEvaluator evaluator{
      BatchOptions{.threads = 4, .use_shared_cache = false}};
  const std::vector<Determination> parallel = evaluator.evaluate_batch(batch);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(parallel[i], serial[i]);
  }
}

TEST(BatchEvaluatorTest, ParallelBatchBitIdenticalOnRandomizedScenarios) {
  Rng rng{42};
  std::vector<Scenario> batch;
  batch.reserve(512);
  for (int i = 0; i < 512; ++i) batch.push_back(random_scenario(rng, i));

  const ComplianceEngine engine;
  std::vector<Determination> serial;
  serial.reserve(batch.size());
  for (const auto& s : batch) serial.push_back(engine.evaluate(s));

  const BatchEvaluator evaluator{
      BatchOptions{.threads = 4, .use_shared_cache = false}};
  const std::vector<Determination> parallel = evaluator.evaluate_batch(batch);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(parallel[i], serial[i]);
  }
}

TEST(BatchEvaluatorTest, ResultsStayInInputOrder) {
  std::vector<Scenario> batch;
  for (const auto& scene : table1::all_scenes()) batch.push_back(scene.scenario);
  const BatchEvaluator evaluator{
      BatchOptions{.threads = 4, .use_shared_cache = false}};
  const auto out = evaluator.evaluate_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i].scenario_name, batch[i].name);
  }
}

TEST(BatchEvaluatorTest, RepeatedQueriesHitTheCache) {
#if LEXFOR_OBS
  auto& hits = obs::metrics().counter("legal.batch.cache_hits");
  auto& misses = obs::metrics().counter("legal.batch.cache_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
#endif

  const BatchEvaluator evaluator{BatchOptions{.use_shared_cache = false}};
  std::vector<Scenario> batch;
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (const auto& scene : table1::all_scenes()) {
      batch.push_back(scene.scenario);
    }
  }
  (void)evaluator.evaluate_batch(batch);

  // The cache keys on facts, not names, so the 20 rows hold as many
  // entries as they hold distinct fact sets, counted here by the audit
  // digest of each row with its name stripped.
  std::set<std::string> fact_sets;
  for (const auto& scene : table1::all_scenes()) {
    Scenario stripped = scene.scenario;
    stripped.name.clear();
    fact_sets.insert(fingerprint_hex(stripped));
  }
  const std::uint64_t distinct = fact_sets.size();
#if LEXFOR_OBS
  const std::uint64_t hit_delta = hits.value() - hits_before;
  const std::uint64_t miss_delta = misses.value() - misses_before;
  EXPECT_EQ(hit_delta + miss_delta, batch.size());
  // `distinct` fact sets, 200 queries: at most one miss per fact set
  // per racing worker; with the serial fallback this is exactly
  // `distinct` misses, and in the worst parallel interleaving at most
  // twice that.
  EXPECT_GE(miss_delta, distinct);
  EXPECT_GE(hit_delta, batch.size() - 2 * distinct);
#endif
  // In both builds: the batch left one entry per fact set, and a
  // repeat of any row is answered from it.
  EXPECT_EQ(evaluator.cache().size(), distinct);
  for (const auto& scene : table1::all_scenes()) {
    EXPECT_TRUE(answered_from_cache(evaluator, scene.scenario))
        << scene.number;
  }
}

TEST(BatchEvaluatorTest, RenamedHitMatchesTheEngine) {
  // A hit for a scenario whose facts were cached under another name
  // must still be the engine's answer for this name.
  auto& hits = obs::metrics().counter("legal.batch.cache_hits");
  const ComplianceEngine engine;
  const BatchEvaluator cached{BatchOptions{.use_shared_cache = false}};
  for (const auto& scene : table1::all_scenes()) {
    (void)cached.evaluate(scene.scenario);
    Scenario renamed = scene.scenario;
    renamed.name = "renamed: " + renamed.name;
    [[maybe_unused]] const std::uint64_t hits_before = hits.value();
    expect_identical(cached.evaluate(renamed), engine.evaluate(renamed));
#if LEXFOR_OBS
    EXPECT_EQ(hits.value(), hits_before + 1) << renamed.name;
#endif
    EXPECT_TRUE(answered_from_cache(cached, renamed)) << renamed.name;
  }
}

TEST(BatchEvaluatorTest, RenamedHitsMatchTheEngineAcrossThreads) {
  // Two threads ask the same facts under their own names through one
  // cache; each must get its own name back, whichever thread filled
  // the entry.
  const ComplianceEngine engine;
  const BatchEvaluator cached{BatchOptions{.use_shared_cache = false}};
  const auto ask = [&](const std::string& tag) {
    for (int round = 0; round < 4; ++round) {
      for (const auto& scene : table1::all_scenes()) {
        Scenario s = scene.scenario;
        s.name = tag + s.name;
        expect_identical(cached.evaluate(s), engine.evaluate(s));
      }
    }
  };
  std::thread a(ask, "thread a: ");
  std::thread b(ask, "thread b: ");
  a.join();
  b.join();
}

TEST(BatchEvaluatorTest, SharedCacheIsVisibleAcrossEvaluators) {
  // Two evaluators on the shared cache: the second's first query for a
  // scenario the first already derived must be a hit.
  auto& hits = obs::metrics().counter("legal.batch.cache_hits");
  const BatchEvaluator first{};
  const BatchEvaluator second{};
  Scenario s = table1::scene(3).scenario;
  s.name = "shared-cache-probe";
  (void)first.evaluate(s);  // fills the entry, or hits one a test left
  [[maybe_unused]] const std::uint64_t hits_before = hits.value();
  expect_identical(second.evaluate(s), first.engine().evaluate(s));
#if LEXFOR_OBS
  EXPECT_EQ(hits.value(), hits_before + 1);
#endif
  EXPECT_TRUE(answered_from_cache(second, s));
}

TEST(BatchEvaluatorTest, EmptyBatchReturnsEmpty) {
  const BatchEvaluator evaluator{BatchOptions{.use_shared_cache = false}};
  EXPECT_TRUE(evaluator.evaluate_batch({}).empty());
}

}  // namespace
}  // namespace lexfor::legal
