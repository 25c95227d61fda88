// BatchRunner: deterministic parallel Monte-Carlo execution.
//
// Fans independent trials out over helper threads the runner starts once
// and parks between dispatches; the calling thread works too.  Trial `i` always
// draws its randomness from RNG substream `substream_seed(base_seed, i)` and
// writes its result into slot `i`, so the result vector is bit-identical at
// any thread count -- the worker that happens to execute a trial never
// affects its outcome.  Shared lookups (tap sets, front-end responses) go
// through the Session's thread-safe caches.
//
//   sim::Session session(sim::Scenario::pool_a());
//   sim::BatchRunner pool(8);
//   const auto trials = pool.run<sim::TrialKind::kUplink>(session, 1000);
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/session.hpp"
#include "sim/trial.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pab::sim {

class BatchRunner {
 public:
  // Upper bound on `threads`: a width that arrives from outside the program
  // (a spec frame, a command line) is checked against it before any thread
  // starts.  A safety limit, not a tuning knob.
  static constexpr unsigned kMaxThreads = 256;

  // `threads == 0` uses the hardware concurrency (at least 1, at most
  // kMaxThreads); a larger explicit value throws std::invalid_argument.
  // The runner starts `threads - 1` helper threads here; they park until a
  // map() needs them and are joined when the last runner sharing them (see
  // with_metrics) is destroyed.  Dispatch telemetry (`sim.batch.*`:
  // per-worker trial counts, queue drain time, exception counts) lands in
  // `metrics` -- the process-global registry by default, or an explicit
  // registry for isolated accounting.
  explicit BatchRunner(unsigned threads = 0,
                       obs::MetricRegistry* metrics = &obs::MetricRegistry::global());
  ~BatchRunner();
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;
  BatchRunner(BatchRunner&&) = delete;
  BatchRunner& operator=(BatchRunner&&) = delete;

  // A runner over this runner's helpers whose `sim.batch.*` instruments
  // live in `metrics` (null disables them).  Both runners may dispatch at
  // once; the helpers are joined with whichever of them is destroyed last.
  [[nodiscard]] BatchRunner with_metrics(obs::MetricRegistry* metrics) const;

  [[nodiscard]] unsigned threads() const { return threads_; }

  // out[i] = fn(i) for i in [0, n).  `fn` must be safe to call concurrently;
  // use this for deterministic sweeps whose per-point work needs no RNG (or
  // derives it itself, as Session::run_trial does).  The calling thread
  // runs indices too, joined by whichever helpers are idle, so a map() from
  // inside a map() body on the same runner, or several threads calling
  // map() at once, share the helpers instead of waiting for them.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) const {
    using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<std::optional<R>> slots(n);
    auto body = [&](std::size_t i) { slots[i].emplace(fn(i)); };
    dispatch(n, &invoke<decltype(body)>, &body);
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  // out[i] = fn(i, rng_i) with rng_i seeded from the seed-sequence split of
  // (base_seed, i): the parallel replacement for serial `for (trial ...)`
  // loops that thread one Rng through every iteration.
  template <typename Fn>
  auto map_seeded(std::size_t n, std::uint64_t base_seed, Fn&& fn) const {
    return map(n, [&](std::size_t i) {
      pab::Rng rng(substream_seed(base_seed, i));
      return fn(i, rng);
    });
  }

  // ---- Unified Session entry point -----------------------------------------
  // `trials` Monte-Carlo trials of kind K in trial order.  Each trial owns
  // its private state (kTimeline trials their own sim::Timeline), so every
  // kind parallelizes identically and the determinism suite asserts
  // bit-identical results at 1/2/8 threads.
  template <TrialKind K>
  [[nodiscard]] std::vector<pab::Expected<typename TrialTraits<K>::Result>> run(
      const Session& session, std::size_t trials,
      const TrialOptions& opts = {}) const {
    return map(trials, [&](std::size_t i) {
      return session.run_trial<K>(i, opts);
    });
  }

 private:
  struct Helpers;   // the parked helper threads (batch.cpp)
  struct Dispatch;  // one map() in flight (batch.cpp)
  using Body = void (*)(void* ctx, std::size_t i);

  BatchRunner(std::shared_ptr<Helpers> helpers, unsigned threads,
              obs::MetricRegistry* metrics);

  template <typename F>
  static void invoke(void* ctx, std::size_t i) {
    (*static_cast<F*>(ctx))(i);
  }

  // Run body(ctx, i) for every i in [0, n) on the caller and any idle
  // helpers; rethrows the first body exception once every helper that
  // joined has left.  An exception cancels the remaining indices: each
  // participant finishes at most its in-flight one.
  void dispatch(std::size_t n, Body body, void* ctx) const;
  // Run index `i`, already claimed, then claim and run indices of `d` until
  // none is left; `slot` is the participant's number in this dispatch (0 =
  // the caller).
  void drain(Dispatch& d, unsigned slot, std::size_t i) const;

  unsigned threads_;
  std::shared_ptr<Helpers> helpers_;  // null when threads_ == 1
  // Instrument handles resolved once per runner (null when metrics are
  // off); worker_trials_[t] counts participant slot t, t < threads_.
  obs::Counter* trials_counter_ = nullptr;
  obs::Counter* exceptions_counter_ = nullptr;
  obs::Histogram* dispatch_hist_ = nullptr;
  std::vector<obs::Counter*> worker_trials_;
};

}  // namespace pab::sim
