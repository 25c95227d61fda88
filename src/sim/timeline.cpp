#include "sim/timeline.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace pab::sim {

void Timeline::record(double t, std::uint64_t seq, std::string_view label,
                      double value, TimelineEventKind kind) {
  if (logging_)
    log_.push_back(TimelineEvent{t, seq, std::string(label), value, kind});
  auto it = sums_.find(label);
  if (it == sums_.end())
    it = sums_.emplace(std::string(label), NeumaierSum{}).first;
  it->second.add(value);
  ++processed_;
}

void Timeline::schedule_at(double t, std::string_view label,
                           TimelineCallback fn, double value) {
  require(t >= now_, "Timeline: cannot schedule in the past");
  queue_.emplace(std::pair{t, next_seq_++},
                 Scheduled{std::string(label), value, std::move(fn)});
}

void Timeline::schedule_in(double dt, std::string_view label,
                           TimelineCallback fn, double value) {
  require(dt >= 0.0, "Timeline: negative delay");
  schedule_at(now_ + dt, label, std::move(fn), value);
}

void Timeline::charge(std::string_view label, double value) {
  record(now_, next_seq_++, label, value, TimelineEventKind::kCharge);
}

void Timeline::elapse(double dt, std::string_view label) {
  require(dt >= 0.0, "Timeline: negative elapse");
  // Fire everything due inside the interval first: elapse must not jump the
  // clock past scheduled work, or those events would run late and the log
  // would go non-monotonic.
  run_until(now_ + dt);
  record(now_, next_seq_++, label, dt, TimelineEventKind::kElapse);
}

bool Timeline::step() {
  if (queue_.empty()) return false;
  auto it = queue_.begin();
  const auto [t, seq] = it->first;
  // t >= now_ is structural: schedule_at rejects past times and the map pops
  // in time order.
  now_ = t;
  Scheduled ev = std::move(it->second);
  queue_.erase(it);
  // Log before running the callback so a callback that schedules or charges
  // follow-ups appends strictly after its own entry.
  record(t, seq, ev.label, ev.value, TimelineEventKind::kScheduled);
  if (ev.fn) ev.fn(*this);
  return true;
}

void Timeline::run_until(double t) {
  require(t >= now_, "Timeline: run_until into the past");
  while (!queue_.empty() && queue_.begin()->first.first <= t) step();
  now_ = t;
}

void Timeline::run() {
  while (step()) {
  }
}

double Timeline::charged(std::string_view label) const {
  const auto it = sums_.find(label);
  return it == sums_.end() ? 0.0 : it->second.value();
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
