#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

namespace pab::sim {

// One map() in flight.  It lives on its caller's stack; the caller does not
// return before every helper that joined it has left (`running == 0`), and
// a helper touches it only between joining and leaving.
struct BatchRunner::Dispatch {
  const BatchRunner* runner = nullptr;
  Body body = nullptr;
  void* ctx = nullptr;
  std::size_t n = 0;
  unsigned max_participants = 1;  // min(threads, n), the caller included
  std::atomic<std::size_t> next{0};

  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex

  // Guarded by Helpers::mutex.
  unsigned participants = 1;  // slots handed out; slot 0 is the caller
  unsigned running = 0;       // joined helpers that have not left
  bool open = false;          // linked into Helpers' queue
  Dispatch* prev = nullptr;
  Dispatch* following = nullptr;
};

// The helper threads one runner and its with_metrics() views share.  Idle
// helpers park on `work`; an open dispatch sits in a FIFO queue until all
// its indices are claimed or it has all the participants it can use.
struct BatchRunner::Helpers {
  explicit Helpers(unsigned count) {
    threads.reserve(count);
    try {
      for (unsigned t = 0; t < count; ++t)
        threads.emplace_back([this] { park(); });
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Helpers() { stop(); }
  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  void stop() {
    {
      const std::lock_guard lock(mutex);
      stopping = true;
    }
    work.notify_all();
    for (std::thread& t : threads) t.join();
  }

  // Queue `d` for idle helpers to join.
  void open(Dispatch& d) {
    {
      const std::lock_guard lock(mutex);
      d.open = true;
      d.prev = tail;
      (tail != nullptr ? tail->following : head) = &d;
      tail = &d;
    }
    work.notify_all();
  }

  // Close `d` to late helpers, then wait for the ones that joined it.
  void finish(Dispatch& d) {
    std::unique_lock lock(mutex);
    close(d);
    left.wait(lock, [&] { return d.running == 0; });
  }

  void close(Dispatch& d) {  // requires `mutex`
    if (!d.open) return;
    d.open = false;
    (d.prev != nullptr ? d.prev->following : head) = d.following;
    (d.following != nullptr ? d.following->prev : tail) = d.prev;
    d.prev = d.following = nullptr;
  }

  void park() {
    std::unique_lock lock(mutex);
    for (;;) {
      work.wait(lock, [&] { return stopping || head != nullptr; });
      if (head == nullptr) return;
      Dispatch& d = *head;
      if (d.next.load(std::memory_order_relaxed) >= d.n) {
        close(d);  // every index is claimed: nothing to join
        continue;
      }
      const unsigned slot = d.participants++;
      ++d.running;
      if (d.participants == d.max_participants) close(d);
      lock.unlock();
      d.runner->drain(d, slot, d.next.fetch_add(1, std::memory_order_relaxed));
      lock.lock();
      close(d);  // every index is claimed now
      if (--d.running == 0) left.notify_all();
    }
  }

  std::mutex mutex;
  std::condition_variable work;  // a dispatch opened, or stopping
  std::condition_variable left;  // a dispatch's last joined helper left
  Dispatch* head = nullptr;      // open dispatches, oldest first
  Dispatch* tail = nullptr;
  bool stopping = false;
  std::vector<std::thread> threads;  // after everything park() uses
};

BatchRunner::BatchRunner(unsigned threads, obs::MetricRegistry* metrics)
    : BatchRunner(nullptr, threads, metrics) {}

BatchRunner::BatchRunner(std::shared_ptr<Helpers> helpers, unsigned threads,
                         obs::MetricRegistry* metrics)
    : threads_(threads != 0
                   ? threads
                   : std::clamp(std::thread::hardware_concurrency(), 1u,
                                kMaxThreads)),
      helpers_(std::move(helpers)) {
  require(threads_ <= kMaxThreads, "BatchRunner: threads exceeds kMaxThreads");
  // Resolve every instrument the dispatch path can touch once, here: a
  // dispatch never has more than `threads_` participants, and instrument
  // references are registry-lifetime stable, so a warm dispatch builds no
  // string.
  if (metrics != nullptr) {
    trials_counter_ = &metrics->counter("sim.batch.trials");
    exceptions_counter_ = &metrics->counter("sim.batch.exceptions");
    dispatch_hist_ = &metrics->histogram("sim.batch.dispatch_seconds");
    worker_trials_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
      worker_trials_.push_back(&metrics->counter(
          "sim.batch.worker." + std::to_string(t) + ".trials"));
  }
  if (helpers_ == nullptr && threads_ > 1)
    helpers_ = std::make_shared<Helpers>(threads_ - 1);
}

BatchRunner::~BatchRunner() = default;

BatchRunner BatchRunner::with_metrics(obs::MetricRegistry* metrics) const {
  return BatchRunner(helpers_, threads_, metrics);
}

void BatchRunner::dispatch(std::size_t n, Body body, void* ctx) const {
  if (n == 0) return;
  const obs::ScopedTimer drain_timer(dispatch_hist_);
  Dispatch d;
  d.runner = this;
  d.body = body;
  d.ctx = ctx;
  d.n = n;
  d.max_participants =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  // The caller claims index 0 before any helper can see the dispatch, so
  // it always runs at least one index.
  d.next.store(1, std::memory_order_relaxed);
  const bool shared = helpers_ != nullptr && d.max_participants > 1;
  if (shared) helpers_->open(d);
  drain(d, 0, 0);
  if (shared) helpers_->finish(d);
  if (d.error) std::rethrow_exception(d.error);
}

void BatchRunner::drain(Dispatch& d, unsigned slot, std::size_t i) const {
  std::size_t executed = 0;
  for (; i < d.n; i = d.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      d.body(d.ctx, i);
      ++executed;
    } catch (...) {
      if (exceptions_counter_ != nullptr) exceptions_counter_->add();
      {
        const std::lock_guard lock(d.error_mutex);
        if (!d.error) d.error = std::current_exception();
      }
      // Cancel the rest: park the cursor at the end so no participant
      // claims another index (each finishes at most its in-flight one).
      d.next.store(d.n, std::memory_order_relaxed);
    }
  }
  if (trials_counter_ != nullptr && executed > 0) {
    trials_counter_->add(executed);
    worker_trials_[slot]->add(executed);
  }
}

}  // namespace pab::sim
