#include "util/thread_pool.h"

namespace lexfor::util {

unsigned resolve_width(unsigned threads) noexcept {
  return threads != 0 ? threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::process_wide() {
  static ThreadPool* const pool = new ThreadPool(resolve_width(0));
  return *pool;
}

void ThreadPool::Job::drain() {
  for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next.fetch_add(1, std::memory_order_relaxed)) {
    run_index(body, i);
  }
}

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::run(Job& job) {
  const unsigned helpers = job.helpers;
  {
    const std::scoped_lock lock(mu_);
    jobs_.push_back(&job);
  }
  for (unsigned h = 0; h < helpers; ++h) work_.notify_one();
  job.drain();

  // Every index is claimed.  Take back the helpers that never started,
  // then wait for the ones still running theirs.
  std::unique_lock lock(mu_);
  if (job.helpers != 0) {
    std::erase(jobs_, &job);
    job.helpers = 0;
  }
  job.done.wait(lock, [&job] { return job.running == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_.wait(lock, [this] { return !jobs_.empty(); });
    Job& job = *jobs_.front();
    if (--job.helpers == 0) jobs_.erase(jobs_.begin());
    ++job.running;
    lock.unlock();
    job.drain();
    lock.lock();
    // Notify under the lock: the caller owns `job` on its stack and
    // cannot see running == 0, and return, before this has finished.
    if (--job.running == 0) job.done.notify_one();
  }
}

}  // namespace lexfor::util
