// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around calls into the simulator's public entry points
// (never inside src/), kept in memory, and written at exit as Chrome
// trace-event JSON (Perfetto and chrome://tracing read it).  A span's parent
// is the innermost open span on the same thread unless one is passed
// explicitly, which is how trials running on BatchRunner worker threads hang
// under the span of the map call that dispatched them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;
inline constexpr std::uint64_t kNoTrial = ~std::uint64_t{0};

struct SpanRecord {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = kNoParent;
  std::uint64_t trial = kNoTrial;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;
};

// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed durations minus the part children cover
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Totals per span name; self time is the duration minus the length of the
  // union of the child intervals (children on several threads may overlap).
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  // Smallest share of a `parent_name` span's duration that its children
  // cover (1 when no such span exists).
  [[nodiscard]] double min_child_coverage(const std::string& parent_name) const;

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps)
  // of the first `max_spans` spans recorded.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       std::size_t max_spans) const;

 private:
  friend class Span;
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t next_id();
  void record(const SpanRecord& span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::int64_t> next_id_{0};
};

// RAII span: opens at construction, records at destruction.  While open it
// is the implicit parent of spans opened on the same thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t trial = kNoTrial,
       std::int64_t parent = kNoParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const { return rec_.id; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  std::int64_t saved_current_ = kNoParent;
};

}  // namespace perfbench
