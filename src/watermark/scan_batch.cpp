#include "watermark/scan_batch.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace lexfor::watermark {
namespace {

Result<ScanResult> run_job(const ScanJob& job) {
  if (job.kernel == nullptr) {
    return InvalidArgument("scan batch: job has no kernel");
  }
  return job.kernel->scan(job.rates, job.max_offset, job.code_begin,
                          job.code_length);
}

// Offsets the scan for `job` will evaluate; 0 when the job errors out
// before scanning.
[[maybe_unused]] std::size_t offsets_evaluated(const ScanJob& job) {
  if (job.kernel == nullptr) return 0;
  const std::size_t n = job.code_length == 0 ? job.kernel->length()
                                             : job.code_length;
  if (n == 0 || job.rates.size() < n) return 0;
  return std::min(job.max_offset, job.rates.size() - n) + 1;
}

}  // namespace

ScanBatch::ScanBatch(ScanBatchOptions options) : options_(options) {}

util::ThreadPool& ScanBatch::pool() const {
  std::call_once(pool_once_, [this] {
    // Workers pre-register their obs ring shard (see legal::BatchEvaluator).
    pool_ = std::make_unique<util::ThreadPool>(
        options_.threads, [] { LEXFOR_OBS_WARM_THREAD(); });
    pool_->set_queue_observer([](std::size_t depth) {
      LEXFOR_OBS_GAUGE_SET("watermark.scan.pool_queue_depth",
                           static_cast<std::int64_t>(depth));
    });
  });
  return *pool_;
}

std::vector<Result<ScanResult>> ScanBatch::run(
    std::span<const ScanJob> jobs) const {
  std::vector<Result<ScanResult>> out(
      jobs.size(), Result<ScanResult>(Internal("scan job not executed")));
  if (jobs.empty()) return out;

  LEXFOR_OBS_SPAN(obs::Level::kInfo, "watermark", "scan_batch",
                  "jobs=" + std::to_string(jobs.size()), obs::no_sim_time());
  LEXFOR_OBS_COUNTER_ADD("watermark.scan.batches", 1);
  LEXFOR_OBS_COUNTER_ADD("watermark.scan.flows", jobs.size());

  util::ThreadPool& workers = pool();
  // Jobs are coarse (a whole offset scan each), so fan out one job per
  // chunk; the pool's FIFO keeps stragglers rebalanced.
  workers.parallel_for(jobs.size(), 1, [&](std::size_t begin,
                                           std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
#if LEXFOR_OBS
      const auto start = std::chrono::steady_clock::now();
#endif
      out[i] = run_job(jobs[i]);
#if LEXFOR_OBS
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start);
      LEXFOR_OBS_HISTOGRAM_RECORD("watermark.scan.latency_us",
                                  elapsed.count());
      LEXFOR_OBS_COUNTER_ADD("watermark.scan.offsets",
                             offsets_evaluated(jobs[i]));
#endif
    }
  });
  return out;
}

}  // namespace lexfor::watermark
