// sim::Timeline unit tests plus the cross-layer event-driven scenarios the
// refactor exists for: timeline-mode scheduler accounting (backoff, query
// timeout), timed inventory equivalence, the acceptance scenario -- a node
// that browns out mid-inventory, misses its slot, and rejoins after recharge
// -- and recorded absolute outputs of whole kTimeline trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "energy/harvester.hpp"
#include "mac/inventory.hpp"
#include "mac/scheduler.hpp"
#include "mac/zones.hpp"
#include "node/lifecycle.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"
#include "sim/timeline.hpp"
#include "timeline_sums.hpp"

namespace pab::sim {
namespace {

using testing::logged_sum;

// Only a string literal is a label: a runtime string could dangle in the log.
static_assert(!std::is_convertible_v<std::string, TimelineLabel>);
static_assert(!std::is_convertible_v<std::string_view, TimelineLabel>);
static_assert(!std::is_convertible_v<const char*, TimelineLabel>);
static_assert(std::is_trivially_copyable_v<TimelineEvent>);

// Each energy category's label reads "energy.<to_string(c)>".
static_assert([] {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(energy::Category::kCount); ++i) {
    const auto c = static_cast<energy::Category>(i);
    const std::string_view label = node::energy_label(c).view();
    if (!label.starts_with("energy.") ||
        label.substr(7) != energy::to_string(c))
      return false;
  }
  return true;
}());

TEST(Timeline, FiresInTimeOrderWithStableTieBreak) {
  Timeline tl;
  std::vector<std::string> order;
  const auto mark = [&order](const std::string& name) {
    return [&order, name](Timeline&) { order.push_back(name); };
  };
  // Scheduled out of time order, with a deliberate tie at t = 1.0: the tie
  // must break by creation sequence (first scheduled fires first).
  tl.schedule_at(2.0, "late", mark("late"));
  tl.schedule_at(1.0, "tie_first", mark("tie_first"));
  tl.schedule_at(1.0, "tie_second", mark("tie_second"));
  tl.schedule_at(0.5, "early", mark("early"));
  tl.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "tie_first",
                                             "tie_second", "late"}));
  EXPECT_DOUBLE_EQ(tl.now(), 2.0);
  // The log mirrors the fire order, and scheduled entries carry their kind.
  ASSERT_EQ(tl.log().size(), 4u);
  EXPECT_EQ(tl.log()[1].label, "tie_first");
  EXPECT_EQ(tl.log()[2].label, "tie_second");
  EXPECT_LT(tl.log()[1].seq, tl.log()[2].seq);
  for (const auto& e : tl.log())
    EXPECT_EQ(e.kind, TimelineEventKind::kScheduled);
}

TEST(Timeline, RejectsTimeTravel) {
  Timeline tl;
  tl.run_until(5.0);
  EXPECT_THROW(tl.schedule_at(4.0, "past"), std::invalid_argument);
  EXPECT_THROW(tl.schedule_in(-0.1, "negative"), std::invalid_argument);
  EXPECT_THROW(tl.elapse(-1e-9, "negative"), std::invalid_argument);
  EXPECT_THROW(tl.run_until(4.9), std::invalid_argument);
  // Scheduling exactly at now() is allowed (a zero-delay follow-up).
  EXPECT_NO_THROW(tl.schedule_at(5.0, "now"));
}

TEST(Timeline, ElapseFiresDueEventsAtTheirOwnTimestamps) {
  Timeline tl;
  double fired_at = -1.0;
  tl.schedule_at(0.3, "mid", [&fired_at](Timeline& t) {
    fired_at = t.now();
  });
  // elapse(1.0) spans the pending event: the event must fire at t = 0.3, not
  // get dragged to the end of the interval.
  tl.elapse(1.0, "span");
  EXPECT_DOUBLE_EQ(fired_at, 0.3);
  EXPECT_DOUBLE_EQ(tl.now(), 1.0);
  ASSERT_EQ(tl.log().size(), 2u);
  EXPECT_EQ(tl.log()[0].label, "mid");
  EXPECT_EQ(tl.log()[0].kind, TimelineEventKind::kScheduled);
  EXPECT_EQ(tl.log()[1].label, "span");
  EXPECT_EQ(tl.log()[1].kind, TimelineEventKind::kElapse);
  EXPECT_DOUBLE_EQ(tl.log()[1].value, 1.0);
}

TEST(Timeline, ChargedSumsByLabelAndPrefix) {
  Timeline tl;
  tl.elapse(0.25, "mac.downlink");
  tl.elapse(0.25, "mac.downlink");
  tl.elapse(0.05, "mac.uplink");
  tl.charge("energy.idle", 1e-3);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.downlink"), 0.5);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.uplink"), 0.05);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "never"), 0.0);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "energy.idle"), 1e-3);
  // Charges are instantaneous: the clock only moved for the elapses.
  EXPECT_DOUBLE_EQ(tl.now(), 0.55);
  EXPECT_EQ(tl.log().back().kind, TimelineEventKind::kCharge);
}

TEST(Timeline, CallbacksCanScheduleFollowUps) {
  // A self-rescheduling tick: the pattern node::NodeLifecycle uses.
  Timeline tl;
  int ticks = 0;
  std::function<void(Timeline&)> tick = [&](Timeline& t) {
    ++ticks;
    if (ticks < 5) t.schedule_in(0.1, "tick", tick);
  };
  tl.schedule_at(0.0, "tick", tick);
  tl.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_NEAR(tl.now(), 0.4, 1e-12);
  EXPECT_EQ(tl.events_processed(), 5u);
}

TEST(Timeline, LoggingOffStillCountsEvents) {
  Timeline tl;
  tl.set_logging(false);
  tl.elapse(1.0, "work");
  tl.charge("marker", 2.0);
  EXPECT_TRUE(tl.log().empty());
  // The processed count accumulates regardless of log retention.
  EXPECT_EQ(tl.events_processed(), 2u);
}

TEST(Timeline, ExportsGaugesToRegistry) {
  Timeline tl;
  tl.elapse(2.5, "work");
  tl.schedule_at(9.0, "pending");
  obs::MetricRegistry reg;
  tl.export_to(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.events_processed").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.simulated_s").value(), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.pending").value(), 1.0);
}

TEST(Timeline, ReplayIsBitIdentical) {
  const auto drive = [] {
    Timeline tl;
    tl.schedule_at(0.25, "a", nullptr, 1.0);
    tl.schedule_at(0.25, "b", nullptr, 2.0);
    tl.elapse(0.5, "work");
    tl.charge("marker", 3.0);
    tl.schedule_in(0.125, "c");
    tl.run();
    return tl;
  };
  const Timeline first = drive();
  const Timeline second = drive();
  EXPECT_EQ(first.log(), second.log());
  EXPECT_EQ(first.now(), second.now());
}

// --- timeline-mode scheduler -------------------------------------------------

TEST(TimedScheduler, RetryBackoffIsATimedEvent) {
  Timeline tl;
  mac::SchedulerConfig config{2, 0.2, 0.02};
  config.retry_backoff_s = 0.1;
  mac::PollScheduler sched(config, &tl);
  int calls = 0;
  const auto link = [&calls](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    if (++calls == 1)
      return pab::Error{pab::ErrorCode::kTimeout, "silent"};
    return phy::UplinkPacket{7, {0x01}};
  };
  const auto result = sched.transact({7}, link, 80, 1000.0);
  ASSERT_TRUE(result.ok());
  const auto stats = sched.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  // The backoff is real simulated time: it shows up in the clock, in the
  // logged charges, and in elapsed_s -- all in exact agreement.
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.retry_backoff"), 0.1);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.downlink"), 0.4);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.turnaround"), 0.04);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.uplink"), 0.08);
  EXPECT_DOUBLE_EQ(tl.now(), stats.elapsed_s);
  EXPECT_DOUBLE_EQ(stats.elapsed_s, 0.4 + 0.04 + 0.08 + 0.1);
  // Markers: one retry, one no-response, payload bits on the success.
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.payload_bits"), 8.0);
  EXPECT_EQ(logged_sum(tl.log(), "mac.retry"), 0.0);  // marker, value 0
}

TEST(TimedScheduler, QueryTimeoutCapsAirtime) {
  Timeline tl;
  mac::SchedulerConfig config{100, 0.2, 0.02};
  config.retry_backoff_s = 0.1;
  config.query_timeout_s = 1.0;
  mac::PollScheduler sched(config, &tl);
  const auto silent = [](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    return pab::Error{pab::ErrorCode::kTimeout, "silent"};
  };
  const auto result = sched.transact({7}, silent, 80, 1000.0);
  EXPECT_FALSE(result.ok());
  const auto stats = sched.stats();
  // Attempts cost 0.22 s; each retry prepends 0.1 s of backoff.  Spent
  // airtime crosses the 1.0 s budget after the fourth attempt (1.18 s), so
  // the fifth is never issued despite 96 retries remaining.
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.no_response, 4u);
  EXPECT_NEAR(stats.elapsed_s, 4 * 0.22 + 3 * 0.1, 1e-12);
  // The give-up is in the event log.
  bool timed_out = false;
  for (const auto& e : tl.log()) timed_out |= (e.label == "mac.query_timeout");
  EXPECT_TRUE(timed_out);
}

TEST(TimedScheduler, WithoutTimelineAccountingIsUnchanged) {
  // Legacy adapter mode: no timeline, same numbers as always.
  mac::PollScheduler timed({2, 0.2, 0.02});
  const auto ok = [](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    return phy::UplinkPacket{7, {0x01, 0x02}};
  };
  ASSERT_TRUE(timed.transact({7}, ok, 80, 1000.0).ok());
  const auto stats = timed.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_NEAR(stats.elapsed_s, 0.2 + 0.02 + 0.08, 1e-12);
  EXPECT_DOUBLE_EQ(stats.payload_bits_delivered, 16.0);
}

// --- timed inventory ---------------------------------------------------------

TEST(TimedInventory, MatchesUntimedWhenAlwaysAvailable) {
  const std::vector<std::uint8_t> population{3, 17, 42, 99, 120, 200};
  mac::InventoryConfig config;
  config.seed = 77;
  mac::InventoryStats untimed_stats;
  const auto untimed = mac::run_inventory(population, config, &untimed_stats);

  Timeline tl;
  mac::InventoryStats timed_stats;
  const auto timed =
      mac::run_inventory(population, config, tl, {}, &timed_stats);
  EXPECT_EQ(timed, untimed);
  EXPECT_EQ(timed_stats.frames, untimed_stats.frames);
  EXPECT_EQ(timed_stats.slots, untimed_stats.slots);
  EXPECT_EQ(timed_stats.singletons, untimed_stats.singletons);
  EXPECT_EQ(timed_stats.collisions, untimed_stats.collisions);
  EXPECT_EQ(timed_stats.empties, untimed_stats.empties);
  // The round consumed real simulated time: one announcement per frame plus
  // every reply slot.
  const mac::TimedInventoryOptions defaults{};
  EXPECT_NEAR(tl.now(),
              static_cast<double>(timed_stats.frames) *
                      defaults.frame_announce_s +
                  static_cast<double>(timed_stats.slots) * defaults.slot_s,
              1e-12);
  EXPECT_DOUBLE_EQ(logged_sum(tl.log(), "mac.inventory.slot"),
                   static_cast<double>(timed_stats.slots) * defaults.slot_s);
}

// --- acceptance: brownout mid-inventory, miss the slot, rejoin ---------------

TEST(Lifecycle, BrownoutMidInventoryAndRejoin) {
  Timeline tl;
  // Harvest profile: strong while booting, a dead window that browns the node
  // out, then restored harvest so it can rejoin.
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = 1e-3;  // aggressive idle draw so the brownout is quick
  lc.v_ceiling = 5.0;
  lc.harvest_power_w = [](double t) {
    return (t < 2.0 || t >= 8.0) ? 5e-3 : 0.0;
  };
  node::NodeLifecycle node(7, energy::Harvester{circuit::Supercapacitor(100e-6)},
                           lc);
  node.attach(tl, 20.0);

  // Boot phase: the node cold-starts (power-up #1), tops up, then loses
  // harvest at t = 2 and browns out under its idle load around t = 3.
  tl.run_until(4.0);
  EXPECT_EQ(node.power_ups(), 1u);
  EXPECT_EQ(node.brown_outs(), 1u);
  EXPECT_FALSE(node.powered());

  // Inventory starts while the node is dark.  One slot per frame (q pinned
  // to 0), 0.75 s per frame: the node misses every slot until it re-boots at
  // ~8.02 s, then answers the first slot after that (fires at 8.5 s).
  mac::InventoryConfig config;
  config.initial_q = 0;
  config.min_q = 0;
  config.max_q = 0;
  config.max_frames = 32;
  mac::TimedInventoryOptions options;
  options.frame_announce_s = 0.5;
  options.slot_s = 0.25;
  options.available = [&node](std::uint8_t id, double) {
    return id == node.id() && node.powered();
  };
  const std::vector<std::uint8_t> population{7};
  mac::InventoryStats stats;
  const auto identified =
      mac::run_inventory(population, config, tl, options, &stats);

  ASSERT_EQ(identified.size(), 1u);
  EXPECT_EQ(identified[0], 7);
  EXPECT_EQ(node.power_ups(), 2u);   // cold start + rejoin
  EXPECT_EQ(node.brown_outs(), 1u);
  EXPECT_TRUE(node.powered());
  // Missed slots while dark show up as empties; exactly one singleton once
  // the node is back.
  EXPECT_EQ(stats.frames, 6u);
  EXPECT_EQ(stats.empties, 5u);
  EXPECT_EQ(stats.singletons, 1u);
  EXPECT_EQ(stats.collisions, 0u);

  // The rejoined node answers a poll: the round completes end-to-end on the
  // same timeline, and the brownout/power-up markers are in the event log.
  mac::PollScheduler sched({2, 0.2, 0.02}, &tl);
  const auto link = [&node](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    if (!node.powered())
      return pab::Error{pab::ErrorCode::kTimeout, "browned out"};
    return phy::UplinkPacket{7, {0x2a}};
  };
  ASSERT_TRUE(sched.transact({7}, link, 80, 1000.0).ok());
  EXPECT_EQ(sched.stats().successes, 1u);

  std::size_t power_up_events = 0;
  std::size_t brownout_events = 0;
  for (const auto& e : tl.log()) {
    if (e.label == "node.power_up") ++power_up_events;
    if (e.label == "node.brownout") ++brownout_events;
  }
  EXPECT_EQ(power_up_events, 2u);
  EXPECT_EQ(brownout_events, 1u);
  // Energy mirrored into the log agrees with the node's ledger.
  EXPECT_NEAR(logged_sum(tl.log(), "energy.harvested"),
              node.harvester().ledger().harvested(), 1e-15);
}

TEST(Lifecycle, BrownedOutNodeRejoinsMidZonedRoundOnTheMasterTimeline) {
  // The zoned counterpart of the acceptance scenario above.  Three mutually
  // adjacent single-node zones need three colors, so zone 2 inventories in
  // round 1 -- after the master clock has already advanced past round 0.  A
  // node lifecycle on the same timeline cold-starts, browns out when its
  // harvest stops at t = 0.2, and re-boots when it resumes at t = 0.9, in
  // the middle of round 1: its ticks and the zone slots interleave on one
  // event queue (the old isolated sub-timelines froze lifecycle state for a
  // whole round, and their local clocks restarted from zero every round).
  Timeline tl;
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = 5e-3;
  lc.v_ceiling = 5.0;
  lc.harvest_power_w = [](double t) {
    return t < 0.2 ? 10e-3 : t < 0.9 ? 0.0 : 20e-3;
  };
  node::NodeLifecycle node(7, energy::Harvester{circuit::Supercapacitor(100e-6)},
                           lc);
  node.attach(tl, 20.0);

  mac::ZoneLayout layout;
  layout.members = {{0}, {1}, {2}};
  layout.adjacency = {{1, 2}, {0, 2}, {0, 1}};
  const mac::ZoneSchedule schedule = mac::plan_zones(layout);
  ASSERT_EQ(schedule.colors, 3u);
  ASSERT_EQ(schedule.rounds, 2u);
  ASSERT_EQ(schedule.zones[2].round, 1u);

  mac::InventoryConfig config;
  config.initial_q = 0;
  config.min_q = 0;
  config.max_q = 0;
  config.max_frames = 32;
  mac::ZonedInventoryOptions options;
  options.frame_announce_s = 0.5;
  options.slot_s = 0.25;
  const auto result =
      mac::run_zoned_inventory(layout, schedule, config, tl, options);

  // Each zone finds its node in one single-slot frame.
  std::vector<std::uint32_t> sorted = result.identified;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(result.inventory.singletons, 3u);
  EXPECT_EQ(result.inventory.collisions, 0u);

  // The event log, read back: one clock, never running backwards; round 0's
  // two zones announce at 0.5 s and reply at 0.75 s, and round 1 starts at
  // round 0's wall (not at zero), so zone 2 announces at 1.25 s and replies
  // at 1.5 s.
  std::vector<double> frames, slots, round_walls, power_ups, brownouts;
  std::size_t ticks_between_rounds = 0;
  double last = 0.0;
  for (const TimelineEvent& e : tl.log()) {
    EXPECT_GE(e.time, last);
    last = e.time;
    if (e.label == "mac.zone.frame") frames.push_back(e.time);
    if (e.label == "mac.zone.slot") slots.push_back(e.time);
    if (e.label == "mac.zone.round") round_walls.push_back(e.value);
    if (e.label == "node.power_up") power_ups.push_back(e.time);
    if (e.label == "node.brownout") brownouts.push_back(e.time);
    if (e.label == "node.tick") {
      ticks_between_rounds += e.time > 0.75 && e.time < 1.25 ? 1 : 0;
      EXPECT_LE(e.time, 1.5);  // the inventory stops driving the clock
    }
  }
  EXPECT_EQ(frames, (std::vector<double>{0.5, 0.5, 1.25}));
  EXPECT_EQ(slots, (std::vector<double>{0.75, 0.75, 1.5}));
  EXPECT_GT(ticks_between_rounds, 0u);
  // Cold start and brownout while round 0 is on the air; the rejoin lands
  // mid round 1, between round 0's wall and zone 2's slot.
  ASSERT_EQ(power_ups.size(), 2u);
  ASSERT_EQ(brownouts.size(), 1u);
  EXPECT_LT(power_ups[0], 0.2);
  EXPECT_GT(brownouts[0], 0.2);
  EXPECT_LT(brownouts[0], 0.75);
  EXPECT_GT(power_ups[1], 0.9);
  EXPECT_LT(power_ups[1], 1.5);
  EXPECT_EQ(node.power_ups(), 2u);
  EXPECT_EQ(node.brown_outs(), 1u);
  EXPECT_TRUE(node.powered());

  // The wall accounts both rounds end to end, and the master clock agrees.
  EXPECT_EQ(round_walls, (std::vector<double>{0.75, 0.75}));
  EXPECT_EQ(result.simulated_s, 1.5);
  EXPECT_EQ(logged_sum(tl.log(), "mac.zone.round"), result.simulated_s);
  EXPECT_EQ(tl.now(), result.simulated_s);
}

// --- kTimeline golden --------------------------------------------------------

// FNV-1a over every field of every log entry: time and value bits, seq, label
// bytes, kind.
std::uint64_t fnv1a_of_log(const std::vector<TimelineEvent>& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const TimelineEvent& e : log) {
    mix(&e.time, sizeof e.time);
    mix(&e.seq, sizeof e.seq);
    mix(e.label.data(), e.label.size());
    mix(&e.value, sizeof e.value);
    mix(&e.kind, sizeof e.kind);
  }
  return h;
}

struct TimelineGolden {
  std::uint64_t trial;
  std::vector<std::uint8_t> identified;
  std::size_t frames, slots, singletons, collisions, empties;
  std::size_t attempts, successes, crc_failures, no_response, retries;
  double payload_bits, poll_elapsed_s;
  std::size_t events_processed;
  double simulated_s, harvested_j, consumed_j;  // exact bits, %.17g
  std::uint64_t log_fnv;
};

TEST(TimelineTrial, PoolAConcurrentRoundsMatchRecordedGoldens) {
  // Absolute outputs of whole kTimeline trials at the default
  // TimelineRoundConfig -- lifecycle ticks, timed inventory and the poll
  // round on one event queue -- recorded before the inventory drivers were
  // folded onto one ALOHA state machine.  Thread-count determinism is
  // checked elsewhere; this pins the values themselves.
  const TimelineGolden goldens[] = {
      {0, {2, 1}, 5, 9, 2, 0, 7, 2, 2, 0, 0, 0, 32.0, 0.59199999999999997,
       300, 1.0220000000000002, 0.0037361956256749605, 0.00016864000000000015,
       1942437156772269567ULL},
      {1, {1, 2}, 6, 10, 2, 0, 8, 2, 2, 0, 0, 0, 32.0, 0.59199999999999997,
       313, 1.0920000000000001, 0.0029563919504405466, 0.00016616000000000016,
       16087623265783704382ULL},
      {2, {2, 1}, 5, 10, 2, 1, 7, 2, 2, 0, 0, 0, 32.0, 0.59199999999999997,
       307, 1.042, 0.0035497322487629641, 0.00017360000000000015,
       5285505592353666140ULL},
      {3, {2, 1}, 6, 10, 2, 0, 8, 2, 2, 0, 0, 0, 32.0, 0.59199999999999997,
       315, 1.0920000000000001, 0.0038321564677070981, 0.00017112000000000014,
       4697404202334170950ULL},
  };
  obs::MetricRegistry registry;
  const Session session(Scenario::pool_a_concurrent(), &registry);
  for (const TimelineGolden& g : goldens) {
    const auto r = session.run_trial<TrialKind::kTimeline>(g.trial);
    ASSERT_TRUE(r.ok()) << r.error().message();
    const TimelineRunResult& t = r.value();
    EXPECT_EQ(t.identified, g.identified) << "trial " << g.trial;
    EXPECT_EQ(t.inventory.frames, g.frames);
    EXPECT_EQ(t.inventory.slots, g.slots);
    EXPECT_EQ(t.inventory.singletons, g.singletons);
    EXPECT_EQ(t.inventory.collisions, g.collisions);
    EXPECT_EQ(t.inventory.empties, g.empties);
    EXPECT_EQ(t.poll.attempts, g.attempts);
    EXPECT_EQ(t.poll.successes, g.successes);
    EXPECT_EQ(t.poll.crc_failures, g.crc_failures);
    EXPECT_EQ(t.poll.no_response, g.no_response);
    EXPECT_EQ(t.poll.retries, g.retries);
    EXPECT_EQ(t.poll.payload_bits_delivered, g.payload_bits);
    EXPECT_EQ(t.poll.elapsed_s, g.poll_elapsed_s);
    EXPECT_EQ(t.events_processed, g.events_processed);
    EXPECT_EQ(t.event_log.size(), g.events_processed);
    EXPECT_EQ(t.simulated_s, g.simulated_s);
    EXPECT_EQ(t.harvested_j, g.harvested_j);
    EXPECT_EQ(t.consumed_j, g.consumed_j);
    EXPECT_EQ(fnv1a_of_log(t.event_log), g.log_fnv);
  }
}

}  // namespace
}  // namespace pab::sim
