// In-memory spans for the traced run.  The benchmark opens a span around
// each call it makes into a layer (never inside the program), keeps every
// span in memory while it runs, and writes them out at exit as Chrome
// trace JSON (chrome://tracing, Perfetto).  Per-layer metrics come from
// span self times: a span's duration minus the union of its children's
// intervals.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal naming the layer
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;  // case or batch id
};

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Self time of every span: its duration minus the union of its children's
// intervals clipped to it.  Children may nest or overlap each other.
[[nodiscard]] std::vector<std::int64_t> self_times(std::span<const Span> spans);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t spans = 0;
};

// Self and total time summed by span name.
[[nodiscard]] std::map<std::string, LayerTotals> totals_by_name(
    std::span<const Span> spans);

class Tracer {
 public:
  // An RAII span; a null tracer makes it a no-op, so one code path serves
  // the traced and the untraced run.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer ? tracer->open(name, id) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  explicit Tracer(std::size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  [[nodiscard]] std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  // Writes every span as Chrome trace JSON; false if the file cannot be
  // written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

}  // namespace perfbench
