// The benchmark's four workloads.  Each drives the simulator only through its
// public entry points and runs one fixed batch of work per call:
//
//   uplink_100bps      kUplink trials, receiver-bound (480 samples/chip)
//   uplink_5kbps       kUplink trials, synthesis-bound (short frames)
//   field_2000         kField trials on 2000 open-water nodes, interference on
//   campaign_timeline  an in-process BatchExecutor campaign of kTimeline trials
//
// A batch always covers the same trial indices, so every batch of a run must
// reproduce the first batch's digest; `run` goes through the library's normal
// entry points (Session::run_trial / BatchRunner::map / BatchExecutor::run)
// and `replay` re-executes the same work layer by layer with a span around
// every public call, and must produce the identical digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

// FNV-1a over the discrete outputs of a batch.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Exact per-batch counts (the per-layer count metrics).
struct Counts {
  std::uint64_t kept_pairs = 0;
  std::uint64_t tap_evaluations = 0;
  std::uint64_t corrupted_slots = 0;
  std::uint64_t timeline_events = 0;
  std::uint64_t inventory_slots = 0;
};

struct BatchResult {
  std::uint64_t digest = 0;
  std::uint64_t trials = 0;
  // Trials (or campaigns) that threw or returned an error outside the
  // modelled outcomes; kNoPreamble / kDecodeFailure are physical results.
  std::uint64_t failed = 0;
  // The batch's continuous output (mean SNR / mean slot SINR); checked
  // against a tolerance rather than hashed.
  double continuous = 0.0;
  // Host seconds of each Session::run_trial call (empty for the campaign).
  std::vector<double> trial_s;
  Counts counts;
  // Non-empty when a structural check on the outputs failed.
  std::string sanity_error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Name of BatchResult::continuous in the report.
  [[nodiscard]] virtual const char* continuous_name() const = 0;
  // Span whose children must cover it (the per-trial span, or the campaign).
  [[nodiscard]] virtual const char* coverage_span() const = 0;

  [[nodiscard]] virtual BatchResult run() = 0;
  [[nodiscard]] virtual BatchResult replay(Tracer& tracer) = 0;
  // Host seconds of each of the first `n` trials run one at a time.
  [[nodiscard]] virtual std::vector<double> serial_trial_s(std::size_t n) = 0;

  // Registry the workload's sessions and runners report into.
  [[nodiscard]] pab::obs::MetricRegistry& registry() { return registry_; }

 protected:
  pab::obs::MetricRegistry registry_;
};

[[nodiscard]] bool is_workload(const std::string& name);

// Set-up: generates the inputs from `seed`, builds the session(s) and runs
// the warm-up trials that fill caches, FFT plans and arenas.  `tiny` shrinks
// every size for the benchmark's own tests.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      unsigned threads, bool tiny);

}  // namespace perfbench
