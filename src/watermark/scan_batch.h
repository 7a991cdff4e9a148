// ScanBatch: deterministic multi-flow watermark scan fan-out.
//
// The §IV.B collection point observes MANY candidate flows (the
// suspect, every decoy, every account of a Gold-code family), and each
// flow may need an offset scan.  Each (flow × code × offset-range) job
// is pure — CorrelationKernel is immutable after construction and the
// rate series is read-only — so slot i of the output always answers
// job i, bit-identical to kernel->scan() on that job alone, whatever
// the pool size.
//
// Families: jobs that scan the same series (same rates.data() and
// rates.size()) with the same code length over the same offsets form
// a family, whatever kernels they bring.  A family runs as one family
// scan (despread_block.h): each offset block's window sums, means and
// dens are computed once and shared by every code, which then adds
// only its own num.  That is a property of the input, not a setting;
// any other job is a family of one.  With more than one worker a
// family splits into one contiguous code range per worker, and the
// ranges of every family fan across the shared util::ThreadPool; a
// batch of one range runs on the calling thread.  Each kernel's chips
// are read where they are, never copied.
//
// Obs wiring: watermark.scan.batches counts batches and
// watermark.scan.flows one per job; watermark.scan.offsets adds the
// offsets scored by each job that came back ok, and nothing for a job
// that errored.  The watermark.scan.latency_us histogram keeps one
// sample per job: a job in a family records the wall time of the task
// that scanned its code range, and an error job records 0.  The
// watermark.scan.pool_queue_depth gauge tracks the pool's queue.

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
};

struct ScanBatchOptions {
  // 0 = std::thread::hardware_concurrency().  The pool is created
  // lazily on the first run() call that has more than one task, so
  // single-flow and single-family users never pay for worker threads.
  unsigned threads = 0;
};

class ScanBatch {
 public:
  ScanBatch() : ScanBatch(ScanBatchOptions{}) {}
  explicit ScanBatch(ScanBatchOptions options);

  // Runs every job and returns one Result per job, in input order.
  // A null kernel yields an InvalidArgument slot and a too-short series
  // the error scan() would return; neither aborts the rest of the batch.
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
