// ScanBatch: deterministic multi-flow watermark scan fan-out.
//
// The §IV.B collection point observes MANY candidate flows (the
// suspect, every decoy, every account of a Gold-code family), and each
// flow may need an offset scan.  Each (flow × code × offset-range) job
// is pure — CorrelationKernel is immutable after construction and the
// rate series is read-only — so slot i of the output always answers
// job i, bit-identical to kernel->scan() on that job alone, whatever
// the width.
//
// Families: jobs that scan the same series (same rates.data() and
// rates.size()) with the same code length over the same offsets form
// a family, whatever kernels they bring.  A family runs as one family
// scan (despread_block.h): each offset block's window sums, means and
// dens are computed once and shared by every code, which then adds
// only its own num.  That is a property of the input, not a setting;
// any other job is a family of one.  At a width of more than one
// thread a family splits into one contiguous code range per thread, and
// the ranges of every family fan out through util::parallel_for; a
// batch of one range runs on the calling thread.  Each kernel's chips
// are read where they are, never copied.
//
// Obs wiring: watermark.scan.batches counts batches and
// watermark.scan.flows one per job; watermark.scan.offsets adds the
// offsets scored by each job that came back ok, and nothing for a job
// that errored.  The watermark.scan.latency_us histogram keeps one
// sample per job: a job in a family records the wall time of the task
// that scanned its code range, and an error job records 0.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

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
  // run()'s fan-out width (util::parallel_for); 0 = one per hardware
  // thread, 1 = inline on the calling thread.
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
  ScanBatchOptions options_;
};

}  // namespace lexfor::watermark
