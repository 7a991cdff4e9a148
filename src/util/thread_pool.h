// One worker pool for the whole process, and the one fan-out call over it.
//
// Four layers fan independent work across cores: legal::BatchEvaluator,
// watermark::ScanBatch, the §IV.B traceback's flow simulation and
// serve::VerdictServer.  Each passes its own thread setting as the
// `width` of parallel_for(n, width, body), which runs body(i) exactly
// once for every i in [0, n):
//
//   - width <= 1 or n <= 1: inline on the calling thread, in index
//     order.  The pool is neither created nor touched, and nothing is
//     allocated.
//   - otherwise the calling thread claims indices from one atomic
//     counter alongside at most width - 1 helpers from the process-wide
//     pool, and the call returns once every index has run.
//
// The pool has one worker per hardware thread, is created by the first
// call that fans out, and is leaked on purpose (like obs::metrics()), so
// a call from another static object's destructor still finds its
// workers.  A call queues one entry however wide it is; helpers that
// have not started by the time the caller has claimed the last index are
// taken back off the queue, so a call never waits behind another call's
// work.  Each worker registers its obs ring shard on its first traced
// event, once per process.
//
// body(i) must touch only state that index i owns, and must not throw.
// Which thread runs which index is unspecified, so a result may depend
// only on its index for the fan-out to be deterministic.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace lexfor::util {

// A thread setting as a fan-out width: 0 means one per hardware thread
// (at least 1), anything else is taken as is.
[[nodiscard]] unsigned resolve_width(unsigned threads) noexcept;

class ThreadPool {
 public:
  // The process-wide pool, resolve_width(0) workers, created on first use.
  [[nodiscard]] static ThreadPool& process_wide();

  ThreadPool(const ThreadPool&) = delete;  // its workers hold `this`
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  template <typename Body>
  friend void parallel_for(std::size_t n, unsigned width, const Body& body);

  // One fanned-out call, on the caller's stack.  `helpers` and `running`
  // are guarded by the pool's mutex.
  struct Job {
    void (*run_index)(const void* body, std::size_t i);
    const void* body;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    unsigned helpers = 0;  // still to start
    unsigned running = 0;  // started and not yet finished
    std::condition_variable done{};

    void drain();  // claims and runs indices until none is left
  };

  explicit ThreadPool(unsigned threads);

  void run(Job& job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_;
  std::vector<Job*> jobs_;  // calls with helpers still to start, FIFO
  std::vector<std::thread> workers_;
};

template <typename Body>
void parallel_for(std::size_t n, unsigned width, const Body& body) {
  if (width <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool& pool = ThreadPool::process_wide();
  ThreadPool::Job job{
      .run_index =
          [](const void* b, std::size_t i) {
            (*static_cast<const Body*>(b))(i);
          },
      .body = &body,
      .n = n,
      .helpers = static_cast<unsigned>(
          std::min<std::size_t>({width - 1u, n - 1, pool.size()}))};
  pool.run(job);
}

}  // namespace lexfor::util
