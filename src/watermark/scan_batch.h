// ScanBatch: deterministic multi-flow watermark scan fan-out.
//
// The §IV.B collection point observes MANY candidate flows (the
// suspect, every decoy, every account of a Gold-code family), and each
// flow may need an offset scan.  Each (flow × code × offset-range) job
// is pure — CorrelationKernel is immutable after construction and the
// rate series is read-only — so the batch fans jobs across the shared
// util::ThreadPool and merges results in input order: slot i of the
// output always answers job i, bit-identical to running the jobs
// serially, whatever the pool size.
//
// Obs wiring: watermark.scan.batches / watermark.scan.flows /
// watermark.scan.offsets counters, the watermark.scan.latency_us
// per-job scan-latency histogram, and the watermark.scan.pool_queue_depth
// gauge.

#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/thread_pool.h"
#include "watermark/correlate.h"

namespace lexfor::watermark {

// One despread job.  The kernel outlives the batch call and may be
// shared by any number of jobs (one kernel per code, not per flow).
struct ScanJob {
  const CorrelationKernel* kernel = nullptr;
  std::span<const double> rates;  // observed rate series, read in place
  std::size_t max_offset = 0;     // 0 = aligned detection only
  // Despread against code chips [code_begin, code_begin + code_length);
  // code_length 0 means the full code (multibit per-bit jobs use
  // segments).
  std::size_t code_begin = 0;
  std::size_t code_length = 0;
};

struct ScanBatchOptions {
  // 0 = std::thread::hardware_concurrency().  The pool is created
  // lazily on the first run() call, so single-flow users never pay for
  // worker threads.
  unsigned threads = 0;
};

class ScanBatch {
 public:
  ScanBatch() : ScanBatch(ScanBatchOptions{}) {}
  explicit ScanBatch(ScanBatchOptions options);

  // Runs every job and returns one Result per job, in input order.
  // A null kernel yields an InvalidArgument slot; a too-short series
  // yields that job's error; neither aborts the rest of the batch.
  [[nodiscard]] std::vector<Result<ScanResult>> run(
      std::span<const ScanJob> jobs) const;

  [[nodiscard]] unsigned threads() const noexcept { return options_.threads; }

 private:
  [[nodiscard]] util::ThreadPool& pool() const;

  ScanBatchOptions options_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace lexfor::watermark
