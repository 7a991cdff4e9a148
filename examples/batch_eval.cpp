// Batch compliance evaluation: answer "which of these acquisitions
// needs process?" for a whole caseload at once, through the verdict
// cache and the worker pool, and show via the obs counters that the
// cache absorbed the repeated questions.

#include <cstdio>
#include <vector>

#include "legal/batch.h"
#include "legal/table1.h"
#include "obs/obs.h"

int main() {
  using namespace lexfor;
  using namespace lexfor::legal;

  // A caseload: every Table-1 scene, then the same scenes asked four
  // more times — the shape of re-linting a plan after edits, or
  // auditing many similar cases.
  std::vector<Scenario> first;
  for (const auto& scene : table1::all_scenes()) {
    first.push_back(scene.scenario);
  }
  std::vector<Scenario> repeats;
  for (int repeat = 0; repeat < 4; ++repeat) {
    repeats.insert(repeats.end(), first.begin(), first.end());
  }

  auto& hits = obs::metrics().counter("legal.batch.cache_hits");
  auto& misses = obs::metrics().counter("legal.batch.cache_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  // The first pass runs on one thread, so each distinct fact key misses
  // exactly once: threads racing on a cold key would each count a miss.
  // The repeats fan out over every thread and hit the shared verdict
  // cache the first pass filled.
  BatchOptions one_thread;
  one_thread.threads = 1;
  const std::vector<Determination> verdicts =
      BatchEvaluator(one_thread).evaluate_batch(first);
  (void)BatchEvaluator().evaluate_batch(repeats);

  std::printf("%-66s %s\n", "Scenario", "Verdict");
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::printf("%-66.66s %s\n", first[i].name.c_str(),
                verdicts[i].verdict().c_str());
  }

  std::printf("\n%zu queries answered: %llu cache hits, %llu misses\n",
              first.size() + repeats.size(),
              static_cast<unsigned long long>(hits.value() - hits_before),
              static_cast<unsigned long long>(misses.value() - misses_before));
  std::printf("fingerprint of scene 1: %s\n",
              fingerprint_hex(table1::scene(1).scenario).c_str());
  return 0;
}
