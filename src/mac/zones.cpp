#include "mac/zones.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/timeline.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace pab::mac {

namespace {

// splitmix64 finalizer: derives an independent per-zone inventory seed from
// the base seed and the zone id (never from execution order).
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// SINR values are clamped to this band (dB) so a zero-interference or
// zero-amplitude slot still contributes a finite value to the mean.
constexpr double kSinrCapDb = 300.0;

// One reply window of a zone-frame: slot k occupies [start, end] on the
// master clock, and ids[first, first + count) of its WindowRun would
// transmit in it (zone-local ids fixed at the frame announcement;
// availability is re-sampled when the window is read).
struct SlotWindow {
  double start = 0.0;
  double end = 0.0;
  std::size_t first = 0;
  std::size_t count = 0;
};

// The reply windows one zone-frame registers, in slot order, so window
// starts and window ends both ascend.  A run outlives the frame that
// registered it (other zones read it until every window is dead) and owns
// its ids, because the announcing zone reuses its slot books for the next
// frame.  Runs are recycled, keeping their buffers' capacity.
struct WindowRun {
  std::uint32_t zone = 0;
  std::size_t channel = 0;  // index of the zone's carrier
  const std::vector<std::uint32_t>* members = nullptr;  // local id -> global
  std::size_t live = 0;  // windows [0, live) are dead
  std::size_t cursor = 0;  // where the last overlap search started
  std::vector<SlotWindow> windows;
  std::vector<std::uint8_t> ids;
};

struct RoundState;

// One zone's clock around its slotted-ALOHA state machine.  `t_local`
// mirrors, operation for operation, the clock of the old per-zone
// sub-timeline: frame announcements add frame_announce_s, frame ends land on
// frame_start + slots * slot_s, and every event is scheduled on the master
// timeline at round_start + t_local -- so availability predicates observe
// bit-identical absolute timestamps and the interference-off schedule
// reproduces the isolated-zone results exactly.
struct ZoneRun {
  std::uint32_t zone_id = 0;
  const std::vector<std::uint32_t>* members = nullptr;
  std::size_t channel = 0;  // index of the zone's carrier
  RoundState* round = nullptr;
  AlohaRun aloha;  // seeded per zone
  double t_local = 0.0;
  double frame_start = 0.0;  // local time the current frame's first slot opens
  double frame_end = 0.0;    // local time its last slot closes
};

// Shared state of the concurrent rounds.  The round fields are reset at
// each round start; the carrier table and the window books persist, so
// their buffers keep their capacity.
struct RoundState {
  double round_start = 0.0;
  std::size_t active = 0;
  const ZonedInventoryOptions* options = nullptr;
  // Completion-order busy accumulator shared across rounds: the same
  // compensated algorithm, fed in the same order, as the timeline's
  // "mac.zone.inventory.busy_s" label sum -- so the result's busy_s is
  // reconstructible bit-exactly from the event log.
  pab::NeumaierSum* busy = nullptr;
  // Interference ledger of the round, accumulated in slot fire order
  // (deterministic: master-queue (time, seq) order).
  std::size_t corrupted = 0;
  std::size_t evaluated = 0;
  double sinr_db_sum = 0.0;

  // Distinct zone carriers, and the rejection factor of each (receive,
  // transmit) channel pair: rejection_power_factor depends on the two
  // carriers alone, so it is evaluated once per pair, on first use
  // (negative until then).
  std::vector<double> carriers;
  std::vector<double> rejection;
  // Window runs: runs[0, live_runs) are live, in registration order (the
  // order their windows were announced in); the rest are spare, kept for
  // their buffers.
  std::vector<WindowRun> runs;
  std::size_t live_runs = 0;
};

bool node_available(const ZonedInventoryOptions& options, std::uint32_t node,
                    double t) {
  return !options.available || options.available(node, t);
}

double rejection(RoundState& rs, std::size_t rx, std::size_t tx) {
  double& factor = rs.rejection[rx * rs.carriers.size() + tx];
  if (factor < 0.0)
    factor = rejection_power_factor(rs.options->interference.mask,
                                    rs.carriers[tx], rs.carriers[rx]);
  return factor;
}

// Drops every window no future slot can overlap: every slot still to fire
// ends at or after now(), so its window starts at or after now() - slot_s.
// A run's window ends ascend, so its dead windows are a prefix; a run with
// none left becomes spare, and the live runs keep their order.
void retire_windows(RoundState& rs, double dead_before) {
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rs.live_runs; ++r) {
    WindowRun& run = rs.runs[r];
    while (run.live < run.windows.size() &&
           run.windows[run.live].end <= dead_before)
      ++run.live;
    if (run.live == run.windows.size()) continue;
    if (kept != r) std::swap(rs.runs[kept], run);
    ++kept;
  }
  rs.live_runs = kept;
}

// Registers the reply windows of zone z's just-announced frame: one window
// per non-empty slot, as one run after every live one.
void register_windows(RoundState& rs, const ZoneRun& z) {
  const double slot_s = rs.options->slot_s;
  if (rs.live_runs == rs.runs.size()) rs.runs.emplace_back();
  WindowRun& run = rs.runs[rs.live_runs];
  run.zone = z.zone_id;
  run.channel = z.channel;
  run.members = z.members;
  run.live = 0;
  run.cursor = 0;
  run.windows.clear();
  run.ids.clear();
  run.windows.reserve(z.aloha.slot_count());
  run.ids.reserve(z.members->size());
  for (std::size_t k = 0; k < z.aloha.slot_count(); ++k) {
    const std::span<const std::uint8_t> ids = z.aloha.assigned(k);
    if (ids.empty()) continue;
    run.windows.push_back(SlotWindow{
        rs.round_start + (z.frame_start + static_cast<double>(k) * slot_s),
        rs.round_start + (z.frame_start + static_cast<double>(k + 1) * slot_s),
        run.ids.size(), ids.size()});
    run.ids.insert(run.ids.end(), ids.begin(), ids.end());
  }
  if (!run.windows.empty()) ++rs.live_runs;
}

// Aggregate interference power leaking into zone z's receive filter during
// [slot_start, slot_end]: every other zone's window overlapping it
// contributes its available transmitters' squared reader-path amplitudes
// through the rejection mask.  Availability of an interferer is sampled at
// the overlap start -- already in the past when the listening slot fires.
// Windows are visited in announcement order, so the sum is accumulated in
// the same order however the overlaps are found.
double interference_power(RoundState& rs, const ZoneRun& z, double slot_start,
                          double slot_end) {
  const ZoneInterferenceModel& model = rs.options->interference;
  double power = 0.0;
  for (std::size_t r = 0; r < rs.live_runs; ++r) {
    WindowRun& run = rs.runs[r];
    if (run.zone == z.zone_id) continue;
    // The run's windows overlapping the slot are contiguous: from the first
    // that ends after slot_start, while they start before slot_end.  Slots
    // fire in time order, so that first window is found by stepping from
    // where the previous query found it.
    const auto ended = [slot_start](const SlotWindow& v) {
      return !(v.end > slot_start);
    };
    std::size_t& k = run.cursor;
    k = std::max(k, run.live);
    while (k > run.live && !ended(run.windows[k - 1])) --k;
    while (k < run.windows.size() && ended(run.windows[k])) ++k;
    for (auto w = run.windows.begin() + static_cast<std::ptrdiff_t>(k);
         w != run.windows.end() && w->start < slot_end; ++w) {
      const double reject = rejection(rs, z.channel, run.channel);
      if (reject <= 0.0) continue;
      const double sample_t = std::max(slot_start, w->start);
      for (std::size_t i = w->first; i < w->first + w->count; ++i) {
        const std::uint32_t node = (*run.members)[run.ids[i] - 1];
        if (!node_available(*rs.options, node, sample_t)) continue;
        const double amp = model.node_amplitude[node];
        power += amp * amp * reject;
      }
    }
  }
  return power;
}

// SINR (dB, clamped to +-kSinrCapDb) of a singleton reply from global node
// `node` in zone z's slot [slot_start, slot_end].
double slot_sinr_db(RoundState& rs, const ZoneRun& z, std::uint32_t node,
                    double slot_start, double slot_end) {
  const ZoneInterferenceModel& model = rs.options->interference;
  const double amp = model.node_amplitude[node];
  const double signal = amp * amp;
  const double denom =
      model.noise_power + interference_power(rs, z, slot_start, slot_end);
  if (denom <= 0.0) return signal > 0.0 ? kSinrCapDb : -kSinrCapDb;
  if (signal <= 0.0) return -kSinrCapDb;
  return std::clamp(10.0 * std::log10(signal / denom), -kSinrCapDb, kSinrCapDb);
}

void schedule_frame(ZoneRun& z, sim::Timeline& tl);

// Frame end: close the frame (a singleton drowned by concurrent zones is a
// CRC failure, which the reader retries like a collision), then either
// announce the next frame or complete the zone.  Runs inside the final slot
// event of the frame, whose fire time is exactly the frame end.
void finish_frame(ZoneRun& z, sim::Timeline& tl) {
  RoundState& rs = *z.round;
  z.aloha.close();
  if (z.aloha.done()) {
    tl.charge("mac.zone.inventory.busy_s", z.t_local);
    rs.busy->add(z.t_local);
    --rs.active;
    return;
  }
  schedule_frame(z, tl);
}

// One reply slot fires at its end time: collect the zone's own replies
// (availability sampled at the fire time, the interference-off semantics),
// evaluate the SINR verdict for singleton replies, and on the frame's last
// slot run the frame-end bookkeeping.
void fire_slot(ZoneRun& z, sim::Timeline& tl, std::size_t k) {
  RoundState& rs = *z.round;
  const ZonedInventoryOptions& options = *rs.options;
  for (const std::uint8_t id : z.aloha.assigned(k)) {
    if (node_available(options, (*z.members)[id - 1], tl.now()))
      z.aloha.reply(k, id);
  }
  // The SINR verdict is decided now, at the slot's fire time, when every
  // window overlapping the slot is registered (any overlapping frame was
  // announced before the slot ends).
  const ZoneInterferenceModel& model = options.interference;
  const std::span<const std::uint8_t> replied = z.aloha.replied(k);
  if (model.enabled && replied.size() == 1) {
    const std::uint32_t node = (*z.members)[replied.front() - 1];
    const double slot_start =
        rs.round_start +
        (z.frame_start + static_cast<double>(k) * options.slot_s);
    const double db = slot_sinr_db(rs, z, node, slot_start, tl.now());
    ++rs.evaluated;
    rs.sinr_db_sum += db;
    if (!(db >= model.capture_threshold_db)) {  // a NaN SINR fails too
      z.aloha.corrupt(k);
      ++rs.corrupted;
    }
  }
  if (k + 1 == z.aloha.slot_count()) {
    z.t_local = z.frame_end;
    finish_frame(z, tl);
  }
}

// The frame announcement ends: slot assignment is fixed (the node PRNG is
// seeded by the query nonce), reply windows are registered for the round,
// and the slot events are scheduled.
void announce_frame(ZoneRun& z, sim::Timeline& tl) {
  RoundState& rs = *z.round;
  const ZonedInventoryOptions& options = *rs.options;
  z.t_local = z.frame_start;
  const std::size_t slot_count = z.aloha.announce();
  if (options.interference.enabled) {
    retire_windows(rs, tl.now() - options.slot_s);
    register_windows(rs, z);
  }
  z.frame_end =
      z.frame_start + static_cast<double>(slot_count) * options.slot_s;
  for (std::size_t k = 0; k < slot_count; ++k) {
    tl.schedule_at(
        rs.round_start +
            (z.frame_start + static_cast<double>(k + 1) * options.slot_s),
        "mac.zone.slot", [&z, k](sim::Timeline& t) { fire_slot(z, t, k); },
        options.slot_s);
  }
}

// Announce the zone's next frame: the announcement occupies
// [t_local, t_local + frame_announce_s] and its event fires at the end.
void schedule_frame(ZoneRun& z, sim::Timeline& tl) {
  const RoundState& rs = *z.round;
  z.frame_start = z.t_local + rs.options->frame_announce_s;
  tl.schedule_at(rs.round_start + z.frame_start, "mac.zone.frame",
                 [&z](sim::Timeline& t) { announce_frame(z, t); },
                 rs.options->frame_announce_s);
}

}  // namespace

ZoneSchedule plan_zones(const ZoneLayout& layout,
                        const ChannelPlanConfig& config) {
  const std::size_t n = layout.members.size();
  require(layout.adjacency.size() == n,
          "plan_zones: adjacency/members size mismatch");

  ZoneSchedule out;
  out.zones.resize(n);

  // Greedy coloring, zone-id order, lowest free color: deterministic and at
  // most max_degree + 1 colors.
  std::size_t colors = 0;
  std::vector<bool> in_use;
  for (std::size_t z = 0; z < n; ++z) {
    in_use.assign(colors + 1, false);
    for (const std::uint32_t a : layout.adjacency[z]) {
      require(a < n, "plan_zones: adjacency references unknown zone");
      require(a != z, "plan_zones: self-loop in zone adjacency");
      if (a < z) {
        const std::uint32_t c = out.zones[a].color;
        if (c < in_use.size()) in_use[c] = true;
      }
    }
    std::uint32_t color = 0;
    while (color < in_use.size() && in_use[color]) ++color;
    out.zones[z].color = color;
    colors = std::max(colors, static_cast<std::size_t>(color) + 1);
  }
  out.colors = colors;

  // One channel-plan "slot" per color: the over-subscription result maps
  // color -> (carrier, sequential round) when colors exceed the band.
  out.plan = plan_channels(std::max<std::size_t>(colors, 1), config);
  const std::size_t channels = out.plan.channels();
  for (std::size_t z = 0; z < n; ++z) {
    ZoneAssignment& a = out.zones[z];
    a.carrier_hz = out.plan.carrier_for(a.color);
    a.round = static_cast<std::uint32_t>(a.color / channels);
  }
  out.rounds = n == 0 ? 0 : (colors + channels - 1) / channels;
  return out;
}

ZonedInventoryResult run_zoned_inventory(const ZoneLayout& layout,
                                         const ZoneSchedule& schedule,
                                         const InventoryConfig& config,
                                         sim::Timeline& timeline,
                                         const ZonedInventoryOptions& options) {
  const std::size_t n = layout.members.size();
  require(schedule.zones.size() == n, "run_zoned_inventory: schedule mismatch");
  require(options.frame_announce_s >= 0.0 && options.slot_s >= 0.0,
          "run_zoned_inventory: negative timing");
  if (options.interference.enabled) {
    for (const auto& members : layout.members)
      for (const std::uint32_t g : members)
        require(g < options.interference.node_amplitude.size(),
                "run_zoned_inventory: interference amplitudes must cover "
                "every member node");
  }

  ZonedInventoryResult out;
  out.zones = n;
  out.rounds = schedule.rounds;
  pab::NeumaierSum busy;

  RoundState rs;
  rs.options = &options;
  rs.busy = &busy;
  std::vector<std::size_t> channel_of(n);
  for (std::size_t z = 0; z < n; ++z) {
    const double carrier = schedule.zones[z].carrier_hz;
    const auto it = std::find(rs.carriers.begin(), rs.carriers.end(), carrier);
    channel_of[z] = static_cast<std::size_t>(it - rs.carriers.begin());
    if (it == rs.carriers.end()) rs.carriers.push_back(carrier);
  }
  if (options.interference.enabled)
    rs.rejection.assign(rs.carriers.size() * rs.carriers.size(), -1.0);
  // Zone-local uint8 ids 1..members.size() map back to global indices: the
  // hierarchical addressing that lifts the flat protocol's limit.
  std::array<std::uint8_t, 200> local_ids{};
  for (std::size_t k = 0; k < local_ids.size(); ++k)
    local_ids[k] = static_cast<std::uint8_t>(k + 1);

  for (std::size_t round = 0; round < schedule.rounds; ++round) {
    rs.round_start = timeline.now();
    rs.corrupted = 0;
    rs.evaluated = 0;
    rs.sinr_db_sum = 0.0;
    rs.live_runs = 0;  // the previous round's windows end before this one

    std::vector<ZoneRun> runs;
    for (std::size_t z = 0; z < n; ++z) {
      if (schedule.zones[z].round != round) continue;
      const std::vector<std::uint32_t>& members = layout.members[z];
      if (members.empty()) continue;
      require(members.size() <= local_ids.size(),
              "run_zoned_inventory: a zone holds more than 200 nodes (shrink "
              "the zone extent)");
      InventoryConfig zone_config = config;
      zone_config.seed = mix(config.seed ^ mix(static_cast<std::uint64_t>(z)));
      runs.push_back(ZoneRun{
          .zone_id = static_cast<std::uint32_t>(z),
          .members = &members,
          .channel = channel_of[z],
          .round = &rs,
          .aloha = AlohaRun(std::span(local_ids).first(members.size()),
                            zone_config)});
    }

    // `runs` is stable from here on: callbacks hold references into it.
    for (ZoneRun& z : runs) {
      if (z.aloha.done()) {
        timeline.charge("mac.zone.inventory.busy_s", 0.0);
        busy.add(0.0);
        continue;
      }
      ++rs.active;
      schedule_frame(z, timeline);
    }

    // Drive the round: every frame announcement and reply slot fires at its
    // own absolute timestamp, interleaved with any external events already
    // on the queue (lifecycle ticks).  The clock lands on the round wall --
    // the last slot of the slowest zone -- when the final zone completes.
    while (rs.active > 0) {
      const bool fired = timeline.step();
      require(fired, "run_zoned_inventory: queue drained with zones active");
    }

    double round_wall = 0.0;
    for (const ZoneRun& z : runs) {
      for (const std::uint8_t id : z.aloha.identified())
        out.identified.push_back((*z.members)[id - 1]);
      const InventoryStats& stats = z.aloha.stats();
      out.inventory.frames += stats.frames;
      out.inventory.slots += stats.slots;
      out.inventory.singletons += stats.singletons;
      out.inventory.collisions += stats.collisions;
      out.inventory.empties += stats.empties;
      round_wall = std::max(round_wall, z.t_local);
    }
    out.corrupted_slots += rs.corrupted;
    out.sinr_evaluated_slots += rs.evaluated;
    out.mean_slot_sinr_db += rs.sinr_db_sum;  // normalized below

    // The round's wall time: one entry per round whose value is the maximum
    // concurrent zone duration, distinct from the per-zone busy_s charges
    // (their *sum*) -- the split that keeps label totals honest.
    timeline.charge("mac.zone.round", round_wall);
    out.simulated_s += round_wall;
  }

  out.busy_s = busy.value();
  out.mean_slot_sinr_db =
      out.sinr_evaluated_slots > 0
          ? out.mean_slot_sinr_db / static_cast<double>(out.sinr_evaluated_slots)
          : 0.0;
  return out;
}

}  // namespace pab::mac
