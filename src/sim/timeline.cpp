#include "sim/timeline.hpp"

#include <algorithm>
#include <string>
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

std::uint32_t Timeline::intern(std::string_view label) {
  const auto it = ids_.find(label);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(label);
  sums_.emplace_back();
  ids_.emplace(names_.back(), id);
  return id;
}

void Timeline::record(double t, std::uint64_t seq, std::uint32_t label,
                      double value, TimelineEventKind kind) {
  if (logging_)
    log_.push_back(TimelineEvent{t, seq, names_[label], value, kind});
  sums_[label].add(value);
  ++processed_;
}

void Timeline::schedule_at(double t, std::string_view label,
                           TimelineCallback fn, double value) {
  require(t >= now_, "Timeline: cannot schedule in the past");
  queue_.push_back(
      Scheduled{t, next_seq_++, value, intern(label), std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), FiresLater{});
}

void Timeline::schedule_in(double dt, std::string_view label,
                           TimelineCallback fn, double value) {
  require(dt >= 0.0, "Timeline: negative delay");
  schedule_at(now_ + dt, label, std::move(fn), value);
}

void Timeline::charge(std::string_view label, double value) {
  record(now_, next_seq_++, intern(label), value, TimelineEventKind::kCharge);
}

void Timeline::elapse(double dt, std::string_view label) {
  require(dt >= 0.0, "Timeline: negative elapse");
  // Fire everything due inside the interval first: elapse must not jump the
  // clock past scheduled work, or those events would run late and the log
  // would go non-monotonic.
  run_until(now_ + dt);
  record(now_, next_seq_++, intern(label), dt, TimelineEventKind::kElapse);
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

double Timeline::charged(std::string_view label) const {
  const auto it = ids_.find(label);
  return it == ids_.end() ? 0.0 : sums_[it->second].value();
}

void Timeline::export_to(obs::MetricRegistry& registry,
                         std::string_view prefix) const {
  const std::string base = std::string(prefix) + ".";
  registry.gauge(base + "events_processed")
      .set(static_cast<double>(processed_));
  registry.gauge(base + "simulated_s").set(now_);
  registry.gauge(base + "pending").set(static_cast<double>(queue_.size()));
}

}  // namespace pab::sim
