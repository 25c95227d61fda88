// Deterministic discrete-event timeline: the single source of simulated time.
//
// Underwater acoustic MACs are latency-dominated (slow sound propagation is
// why polling/FDMA matter at all), so *when* things happen is the quantity
// the network figures are made of.  Before this class, every layer kept its
// own private time axis: the MAC summed airtime into an obs gauge, the energy
// ledger recorded joules with no timestamps, and the time-varying channel
// advanced on its own `t`.  The Timeline replaces those with one monotonic
// event queue that layers either *charge* (post durations and instantaneous
// events to) or *read* (sample state at `now()`); see DESIGN.md §10 for the
// layering rules.
//
// Determinism contract:
//   - events fire in (time, sequence) order -- ties broken by the order the
//     events were created, never by pointer values or hash order;
//   - nothing in this class reads a wall clock, `Date`-style entropy, or any
//     other ambient nondeterminism; a Timeline driven by the same calls
//     produces the same event log, bit for bit, on any thread of any run;
//   - per-label charge totals accumulate through pab::NeumaierSum, so the
//     reported sums are exact to ~1 ulp regardless of event count.
//
// Build note: this file compiles into its own bottom-layer target
// `pab_timeline` (depending only on pab_util + pab_obs) so that mac/ and
// node/ can link it without creating a cycle with the sim umbrella.  It lives
// in the sim/ directory and namespace because simulated time is a simulation
// concern, not a MAC or energy one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace pab::obs {
class MetricRegistry;
}  // namespace pab::obs

namespace pab::sim {

class Timeline;

// How a log entry came to be processed: popped off the queue (kScheduled),
// posted instantaneously at now() (kCharge), or recorded by an elapse
// (kElapse).  The distinction matters for the tie-break guarantee below.
enum class TimelineEventKind : std::uint8_t { kScheduled, kCharge, kElapse };

// One entry of the audit log: everything that consumed or marked simulated
// time, in the exact order it was processed.  `value` is label-dependent --
// a duration in seconds for airtime charges, joules for energy mirrors, a
// node id or zero for markers.  `seq` is the creation sequence number of the
// event (schedule order).  The queue's tie-break guarantee is that
// *scheduled* events at equal time pop in seq order; a charge posted at the
// current time while a same-time event is still pending is processed (and
// logged) at its call site, so charges interleave with equal-time scheduled
// entries by processing order, not by seq.
struct TimelineEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::string label;
  double value = 0.0;
  TimelineEventKind kind = TimelineEventKind::kCharge;

  friend bool operator==(const TimelineEvent&, const TimelineEvent&) = default;
};

// Callback run when a scheduled event fires.  The Timeline is passed back in
// so callbacks can read now() and schedule follow-up events (self-ticking
// node lifecycles do exactly that).
using TimelineCallback = std::function<void(Timeline&)>;

class Timeline {
 public:
  Timeline() = default;

  // Current simulated time in seconds.  Monotonically non-decreasing.
  [[nodiscard]] double now() const { return now_; }

  // --- posting events -------------------------------------------------------

  // Schedule `fn` to run at absolute time `t` (>= now()).  When the event
  // fires it is logged as (t, seq, label, value) *before* `fn` runs, so a
  // callback that charges further events sees itself already in the log.
  // `fn` may be null (pure marker).
  void schedule_at(double t, std::string_view label,
                   TimelineCallback fn = nullptr, double value = 0.0);

  // Schedule `dt` seconds from now.
  void schedule_in(double dt, std::string_view label,
                   TimelineCallback fn = nullptr, double value = 0.0);

  // Log an instantaneous event at now() (a marker or a non-time quantity such
  // as mirrored joules).  Does not advance the clock.
  void charge(std::string_view label, double value);

  // Advance the clock by `dt`, firing every event scheduled inside the
  // interval first, then log (label, dt) at the new now().  This is how a
  // layer charges a duration (downlink airtime, a turnaround gap): the elapse
  // *is* the authoritative record of that time being spent.  Note the due
  // events fire at their own timestamps -- elapse never jumps past pending
  // work, which is what keeps the log monotonic.
  void elapse(double dt, std::string_view label);

  // --- running the queue ----------------------------------------------------

  // Fire the earliest pending event; returns false if the queue is empty.
  bool step();

  // Fire every event scheduled at or before `t`, then set now() = t.
  void run_until(double t);

  // Drain the queue completely; now() ends at the last event's time.
  void run();

  // --- inspection -----------------------------------------------------------

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  // Number of log-worthy events processed (fired + charges + elapses).  Equals
  // log().size() while logging is enabled.
  [[nodiscard]] std::size_t events_processed() const { return processed_; }
  [[nodiscard]] const std::vector<TimelineEvent>& log() const { return log_; }
  // Disable/enable log retention for long runs where only the sums matter.
  // Charge totals and events_processed() keep accumulating either way.
  void set_logging(bool enabled) { logging_ = enabled; }

  // Exact (Neumaier) sum of `value` over all processed events with this
  // label; 0.0 for labels never charged.
  [[nodiscard]] double charged(std::string_view label) const;

  // Publish `<prefix>.events_processed`, `<prefix>.simulated_s`, and
  // `<prefix>.pending` gauges (bench sidecars).
  void export_to(obs::MetricRegistry& registry,
                 std::string_view prefix = "sim.timeline") const;

 private:
  // One pending event.  `label` is an interned id (see intern()), so a queued
  // event holds no string.
  struct Scheduled {
    double time = 0.0;
    std::uint64_t seq = 0;
    double value = 0.0;
    std::uint32_t label = 0;
    TimelineCallback fn;
  };

  // Id of `label`, registering it on first use.
  std::uint32_t intern(std::string_view label);
  void record(double t, std::uint64_t seq, std::uint32_t label, double value,
              TimelineEventKind kind);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  // Pending events as a binary min-heap on (time, seq).  seq is unique, so
  // the heap pops in exactly the (time, sequence) order a sorted map would
  // iterate in, with no hash- or pointer-order to leak in; the vector keeps
  // its capacity, so a steady-state event allocates nothing.
  std::vector<Scheduled> queue_;
  std::vector<TimelineEvent> log_;
  // Interned labels: ids_ maps a label to its index in names_ and sums_.
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<std::string> names_;
  std::vector<NeumaierSum> sums_;
  std::size_t processed_ = 0;
  bool logging_ = true;
};

}  // namespace pab::sim
