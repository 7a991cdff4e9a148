// The four workloads and what they hand back to main.cpp, which turns
// the results into the JSON line the benchmark ends with.

#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON written at exit (traced run)
};

// Failures are counted against attempts; the first few are printed with
// the seed and the operation's index so that they can be replayed.
class Outcome {
 public:
  explicit Outcome(std::uint64_t seed) : seed_(seed) {}

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t op, const std::string& why) {
    ++failed_;
    if (failed_ <= kPrinted) {
      std::printf("FAIL seed=%llu op=%llu: %s\n",
                  static_cast<unsigned long long>(seed_),
                  static_cast<unsigned long long>(op), why.c_str());
    }
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  // End-to-end metrics (untraced run) or per-layer metrics (traced run),
  // by the names BENCHMARK.json lists.
  std::map<std::string, double> metrics;

 private:
  static constexpr std::uint64_t kPrinted = 20;
  std::uint64_t seed_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// A thread-count option where 0 means hardware concurrency, resolved the
// way util::ThreadPool resolves it.
[[nodiscard]] inline unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 5;

void run_serve(const RunOptions& options, bool cold, Outcome& out);
void run_traceback(const RunOptions& options, Outcome& out);
void run_multiflow_scan(const RunOptions& options, Outcome& out);

}  // namespace perfbench
