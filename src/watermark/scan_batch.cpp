#include "watermark/scan_batch.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include "obs/obs.h"
#include "util/thread_pool.h"
#include "watermark/despread_block.h"

namespace lexfor::watermark {

ScanBatch::ScanBatch(ScanBatchOptions options) : options_(options) {}

std::vector<Result<ScanResult>> ScanBatch::run(
    std::span<const ScanJob> jobs) const {
  std::vector<Result<ScanResult>> out(
      jobs.size(), Result<ScanResult>(Internal("scan job not executed")));
  if (jobs.empty()) return out;

  LEXFOR_OBS_SPAN(obs::Level::kInfo, "watermark", "scan_batch",
                  "jobs=" + std::to_string(jobs.size()), obs::no_sim_time());
  LEXFOR_OBS_COUNTER_ADD("watermark.scan.batches", 1);
  LEXFOR_OBS_COUNTER_ADD("watermark.scan.flows", jobs.size());

  // A job that passed scan()'s checks.  The rest fill their error slots
  // here and record a zero-latency sample.
  struct Member {
    std::size_t job;
    CorrelationKernel::Window window;
  };
  std::vector<Member> members;
  members.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScanJob& job = jobs[i];
    const auto w =
        job.kernel == nullptr
            ? Result<CorrelationKernel::Window>(
                  InvalidArgument("scan batch: job has no kernel"))
            : job.kernel->window(job.rates, job.max_offset);
    if (w.ok()) {
      members.push_back(Member{i, w.value()});
    } else {
      out[i] = w.status();
      LEXFOR_OBS_HISTOGRAM_RECORD("watermark.scan.latency_us", 0);
    }
  }

  // A family is every member that scans the same series with the same
  // code length over the same offsets; sorting by that key (stably, so
  // a family keeps input order) makes each family one contiguous run.
  const auto key = [&jobs](const Member& m) {
    const std::span<const double> rates = jobs[m.job].rates;
    return std::tuple(reinterpret_cast<std::uintptr_t>(rates.data()),
                      rates.size(), m.window.n, m.window.last_offset);
  };
  std::stable_sort(members.begin(), members.end(),
                   [&key](const Member& a, const Member& b) {
                     return key(a) < key(b);
                   });

  // One task per contiguous code range: a family splits into as many
  // near-equal ranges as the width (fewer if it has fewer codes).
  const unsigned width = util::resolve_width(options_.threads);
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  for (std::size_t begin = 0; begin < members.size();) {
    std::size_t end = begin + 1;
    while (end < members.size() && key(members[end]) == key(members[begin])) {
      ++end;
    }
    const std::size_t size = end - begin;
    const std::size_t parts = std::min<std::size_t>(width, size);
    for (std::size_t p = 0; p < parts; ++p) {
      tasks.emplace_back(begin + size * p / parts,
                         begin + size * (p + 1) / parts);
    }
    begin = end;
  }

  const auto run_task = [&](std::size_t t) {
#if LEXFOR_OBS
    const auto start = std::chrono::steady_clock::now();
#endif
    const auto [begin, end] = tasks[t];
    std::vector<detail::ScanCode> codes;
    codes.reserve(end - begin);
    for (std::size_t m = begin; m < end; ++m) {
      codes.push_back(members[m].window.code);
    }
    std::vector<ScanResult> best(end - begin);
    const CorrelationKernel::Window& w = members[begin].window;
    detail::scan_family(jobs[members[begin].job].rates.data(), w.last_offset,
                        w.n, codes.data(), codes.size(), best.data());
    for (std::size_t m = begin; m < end; ++m) {
      const Member& member = members[m];
      out[member.job] =
          jobs[member.job].kernel->decide(best[m - begin], member.window);
    }
#if LEXFOR_OBS
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    for (std::size_t m = begin; m < end; ++m) {
      LEXFOR_OBS_HISTOGRAM_RECORD("watermark.scan.latency_us",
                                  elapsed.count());
    }
    LEXFOR_OBS_COUNTER_ADD("watermark.scan.offsets",
                           (end - begin) * (w.last_offset + 1));
#endif
  };
  util::parallel_for(tasks.size(), width, run_task);
  return out;
}

}  // namespace lexfor::watermark
