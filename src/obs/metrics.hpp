// Observability: thread-safe metrics for the simulation pipeline.
//
// A MetricRegistry names three kinds of instruments:
//   * Counter   -- monotonically increasing event count (cache hits, trials),
//   * Gauge     -- last-written scalar, with atomic accumulate (airtime sums),
//   * Histogram -- fixed-bucket distribution (per-stage latencies).
// All mutation paths are lock-free atomics, so instruments can sit on the
// Monte-Carlo hot path: they never block a worker and never touch an RNG
// stream, which keeps the determinism contract (bit-identical trials at any
// thread count) intact with metrics enabled.
//
// Naming scheme (see DESIGN.md section 7): dot-separated
// `<layer>.<component>.<quantity>[_<unit>]`, e.g. `channel.tapcache.hits`,
// `phy.demod.correlate_seconds`, `sim.batch.worker.3.trials`.
//
// References returned by the registry stay valid for the registry's lifetime;
// hot paths resolve an instrument once and keep the pointer.  Export is
// `to_json()` (bench sidecars).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pab::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // Atomic accumulate (CAS loop): gauges double as float-valued counters for
  // quantities like summed airtime or delivered payload bits.
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

// Plain-value copy of a histogram's state: the unit of cross-process metric
// aggregation.  A snapshot taken in a campaign worker is shipped over the
// wire and merged into the coordinator's totals; merges are exact for bucket
// counts and observation counts (integer adds) and order-sensitive only in
// the last-ulp rounding of `sum`, so coordinators fold shards in a canonical
// (shard-id) order.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  double sum = 0.0;

  [[nodiscard]] double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  // Approximate quantile (linear interpolation inside the winning bucket;
  // the overflow bucket reports its lower edge); q in [0, 1].  Returns 0
  // when empty.
  [[nodiscard]] double quantile(double q) const;
  // Bucket-wise add; bounds must match exactly (same build, same instrument).
  void merge_from(const HistogramSnapshot& other);
};

// Fixed-bucket histogram: bucket i counts observations x <= bound[i] (first
// matching bucket); anything above the last bound lands in the overflow
// bucket.  Bounds are fixed at construction so observation is a branch-free
// scan plus one atomic increment.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const auto n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  // Count of bucket i in [0, bounds().size()]; index bounds().size() is the
  // overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Value copy of the current state (relaxed reads; per-bucket totals are
  // exact once writers have quiesced, as at shard boundaries).
  [[nodiscard]] HistogramSnapshot snapshot() const;

  // Default latency bucket edges: log-spaced 1 us .. 10 s, suitable for every
  // timing in the pipeline (chip decode ~ us, full waveform trials ~ s).
  [[nodiscard]] static std::span<const double> default_time_buckets();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Plain-value copy of a whole registry.  Snapshots are what campaign workers
// stream to the coordinator: counters merge by addition, histograms by
// bucket-wise addition, gauges by overwrite (last merged writer wins, so
// folds must pick a canonical order when determinism matters).  `to_json()`
// emits the exact sidecar schema of MetricRegistry::to_json, so a merged
// snapshot can stand in for a single-process sidecar key-for-key.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramSnapshot, std::less<>> histograms;

  void merge_from(const MetricsSnapshot& other);
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// RAII wall-clock timer recording seconds into a histogram on destruction.
// A null histogram disables the timer (metrics-off call sites stay cheap).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (h_ != nullptr)
      h_->observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_{};
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Find-or-create by name.  The returned reference is stable for the
  // registry's lifetime; repeated calls with one name return one instrument.
  // A histogram's bounds are fixed by its first registration.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(
      std::string_view name,
      std::span<const double> bounds = Histogram::default_time_buckets());

  // Value copy of every registered instrument.  The campaign engine runs
  // each shard on a fresh registry and snapshots it at the shard's end, so
  // each snapshot is that shard's delta and merges exactly across processes.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Exports walk a consistent name-sorted order.  JSON schema:
  //   {"counters": {name: n}, "gauges": {name: v},
  //    "histograms": {name: {"count": n, "sum": s, "mean": m,
  //                          "p50": q, "p95": q, "p99": q,
  //                          "buckets": [{"le": bound, "count": n}, ...],
  //                          "overflow": n}}}
  [[nodiscard]] std::string to_json() const;

  // Process-wide registry: default sink of instrumented components, and the
  // source of the bench sidecars.  Components also accept an explicit
  // registry for isolated accounting (unit tests, campaign shards).
  [[nodiscard]] static MetricRegistry& global();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace pab::obs
