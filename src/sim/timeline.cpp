#include "sim/timeline.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace pab::sim {

namespace {

// Heap order for std::push_heap/pop_heap, which keep the greatest element on
// top: an event that fires later compares less, so the earliest (time, seq)
// is popped first.
struct FiresLater {
  template <typename Scheduled>
  bool operator()(const Scheduled& a, const Scheduled& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void Timeline::record(double t, std::uint64_t seq, TimelineLabel label,
                      double value, TimelineEventKind kind) {
  if (logging_)
    log_.push_back(TimelineEvent{t, seq, label.view(), value, kind});
  ++processed_;
}

void Timeline::schedule_at(double t, TimelineLabel label, TimelineCallback fn,
                           double value) {
  require(t >= now_, "Timeline: cannot schedule in the past");
  queue_.push_back(Scheduled{t, next_seq_++, value, label, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), FiresLater{});
}

void Timeline::schedule_in(double dt, TimelineLabel label,
                           TimelineCallback fn, double value) {
  require(dt >= 0.0, "Timeline: negative delay");
  schedule_at(now_ + dt, label, std::move(fn), value);
}

void Timeline::charge(TimelineLabel label, double value) {
  record(now_, next_seq_++, label, value, TimelineEventKind::kCharge);
}

void Timeline::elapse(double dt, TimelineLabel label) {
  require(dt >= 0.0, "Timeline: negative elapse");
  // Fire everything due inside the interval first: elapse must not jump the
  // clock past scheduled work, or those events would run late and the log
  // would go non-monotonic.
  run_until(now_ + dt);
  record(now_, next_seq_++, label, dt, TimelineEventKind::kElapse);
}

bool Timeline::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), FiresLater{});
  Scheduled ev = std::move(queue_.back());
  queue_.pop_back();
  // ev.time >= now_ is structural: schedule_at rejects past times and the
  // heap pops in time order.
  now_ = ev.time;
  // Log before running the callback so a callback that schedules or charges
  // follow-ups appends strictly after its own entry.
  record(ev.time, ev.seq, ev.label, ev.value, TimelineEventKind::kScheduled);
  if (ev.fn) ev.fn(*this);
  return true;
}

void Timeline::run_until(double t) {
  require(t >= now_, "Timeline: run_until into the past");
  while (!queue_.empty() && queue_.front().time <= t) step();
  now_ = t;
}

void Timeline::run() {
  while (step()) {
  }
}

void Timeline::export_to(obs::MetricRegistry& registry) const {
  registry.gauge("sim.timeline.events_processed")
      .set(static_cast<double>(processed_));
  registry.gauge("sim.timeline.simulated_s").set(now_);
  registry.gauge("sim.timeline.pending").set(static_cast<double>(queue_.size()));
}

}  // namespace pab::sim
