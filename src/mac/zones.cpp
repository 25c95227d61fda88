#include "mac/zones.hpp"

#include <algorithm>
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

// One reply window announced for the current round: zone z's slot k occupies
// [start, end] on the master clock and `ids` would transmit in it (zone-local
// ids fixed at the frame announcement; availability is re-sampled when the
// window is read).  Windows own their id list: the announcing zone reuses its
// frame scratch while other zones may still read the window.
struct SlotWindow {
  double start = 0.0;
  double end = 0.0;
  std::uint32_t zone = 0;
  double carrier_hz = 0.0;
  const std::vector<std::uint32_t>* members = nullptr;  // local id -> global
  std::vector<std::uint8_t> ids;
};

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
  double carrier_hz = 0.0;
  AlohaRun aloha;  // seeded per zone
  double t_local = 0.0;
  std::vector<std::vector<std::uint8_t>> by_slot{};  // frame scratch
  std::vector<std::vector<std::uint8_t>> replies{};
  // Per-slot flag: a singleton's SINR missed the capture threshold.  Decided
  // at the slot's fire time, when every window overlapping the slot is
  // registered (any overlapping frame was announced before the slot ends).
  std::vector<std::uint8_t> corrupted{};
};

// Shared state of one concurrent round.
struct RoundState {
  double round_start = 0.0;
  std::vector<ZoneRun>* zones = nullptr;  // active zones, ascending zone id
  std::vector<SlotWindow> windows;
  std::size_t active = 0;
  const ZonedInventoryOptions* options = nullptr;
  // Completion-order busy accumulator shared across rounds: the same
  // compensated algorithm, fed in the same order, as the timeline's
  // "mac.zone.inventory.busy_s" label sum -- so the result's busy_s is
  // reconstructible bit-exactly from the event log.
  pab::NeumaierSum* busy = nullptr;
  // Interference ledger accumulated in slot fire order (deterministic:
  // master-queue (time, seq) order).
  std::size_t corrupted = 0;
  std::size_t evaluated = 0;
  double sinr_db_sum = 0.0;
};

bool node_available(const ZonedInventoryOptions& options, std::uint32_t node,
                    double t) {
  return !options.available || options.available(node, t);
}

// Aggregate interference power leaking into zone z's receive filter during
// [slot_start, slot_end]: every other zone's window overlapping it
// contributes its available transmitters' squared reader-path amplitudes
// through the rejection mask.  Availability of an interferer is sampled at
// the overlap start -- already in the past when the listening slot fires.
double interference_power(const RoundState& rs, const ZoneRun& z,
                          double slot_start, double slot_end) {
  const ZoneInterferenceModel& model = rs.options->interference;
  double power = 0.0;
  for (const SlotWindow& w : rs.windows) {
    if (w.zone == z.zone_id) continue;
    if (!(w.start < slot_end && w.end > slot_start)) continue;
    const double reject =
        rejection_power_factor(model.mask, w.carrier_hz, z.carrier_hz);
    if (reject <= 0.0) continue;
    const double sample_t = std::max(slot_start, w.start);
    for (const std::uint8_t id : w.ids) {
      const std::uint32_t node = (*w.members)[id - 1];
      if (!node_available(*rs.options, node, sample_t)) continue;
      const double amp = model.node_amplitude[node];
      power += amp * amp * reject;
    }
  }
  return power;
}

// SINR (dB, clamped to +-kSinrCapDb) of a singleton reply from global node
// `node` in zone z's slot [slot_start, slot_end].
double slot_sinr_db(const RoundState& rs, const ZoneRun& z, std::uint32_t node,
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

void schedule_frame(ZoneRun& z, RoundState& rs, sim::Timeline& tl);

// Frame end: close the frame (a singleton drowned by concurrent zones is a
// CRC failure, which the reader retries like a collision), then either
// announce the next frame or complete the zone.  Runs inside the final slot
// event of the frame, whose fire time is exactly the frame end.
void finish_frame(ZoneRun& z, RoundState& rs, sim::Timeline& tl) {
  z.aloha.close(z.replies, z.corrupted);
  if (z.aloha.done()) {
    tl.charge("mac.zone.inventory.busy_s", z.t_local);
    rs.busy->add(z.t_local);
    --rs.active;
    return;
  }
  schedule_frame(z, rs, tl);
}

// One reply slot fires at its end time: collect the zone's own replies
// (availability sampled at the fire time, the interference-off semantics),
// evaluate the SINR verdict for singleton replies, and on the frame's last
// slot run the frame-end bookkeeping.
void fire_slot(ZoneRun& z, RoundState& rs, sim::Timeline& tl, std::size_t k,
               double slot_start_abs, double frame_end_local) {
  for (const std::uint8_t id : z.by_slot[k]) {
    if (node_available(*rs.options, (*z.members)[id - 1], tl.now()))
      z.replies[k].push_back(id);
  }
  const ZoneInterferenceModel& model = rs.options->interference;
  if (model.enabled && z.replies[k].size() == 1) {
    const std::uint32_t node = (*z.members)[z.replies[k].front() - 1];
    const double db = slot_sinr_db(rs, z, node, slot_start_abs, tl.now());
    ++rs.evaluated;
    rs.sinr_db_sum += db;
    if (!(db >= model.capture_threshold_db)) {  // a NaN SINR fails too
      z.corrupted[k] = 1;
      ++rs.corrupted;
    }
  }
  if (k + 1 == z.by_slot.size()) {
    z.t_local = frame_end_local;
    finish_frame(z, rs, tl);
  }
}

// Announce the zone's next frame: the announcement occupies
// [t_local, t_local + frame_announce_s] and the event fires at its end,
// where slot assignment is fixed (the node PRNG is seeded by the query
// nonce), reply windows are registered for the round, and the slot events
// are scheduled.
void schedule_frame(ZoneRun& z, RoundState& rs, sim::Timeline& tl) {
  const ZonedInventoryOptions& options = *rs.options;
  const double announce_end_local = z.t_local + options.frame_announce_s;
  tl.schedule_at(
      rs.round_start + announce_end_local, "mac.zone.frame",
      [&z, &rs, announce_end_local](sim::Timeline& timeline) {
        const ZonedInventoryOptions& opts = *rs.options;
        z.t_local = announce_end_local;
        const double frame_start = z.t_local;
        z.aloha.announce(z.by_slot);
        const std::size_t slot_count = z.by_slot.size();
        z.replies.assign(slot_count, {});
        z.corrupted.assign(slot_count, 0);

        if (opts.interference.enabled) {
          // Drop windows no future slot can overlap: every slot still to
          // fire ends at or after now(), so its window starts at or after
          // now() - slot_s.
          const double dead_before = timeline.now() - opts.slot_s;
          std::erase_if(rs.windows, [dead_before](const SlotWindow& w) {
            return w.end <= dead_before;
          });
          for (std::size_t k = 0; k < slot_count; ++k) {
            if (z.by_slot[k].empty()) continue;
            SlotWindow w;
            w.start = rs.round_start +
                      (frame_start + static_cast<double>(k) * opts.slot_s);
            w.end = rs.round_start +
                    (frame_start + static_cast<double>(k + 1) * opts.slot_s);
            w.zone = z.zone_id;
            w.carrier_hz = z.carrier_hz;
            w.members = z.members;
            w.ids = z.by_slot[k];
            rs.windows.push_back(std::move(w));
          }
        }

        const double frame_end_local =
            frame_start + static_cast<double>(slot_count) * opts.slot_s;
        for (std::size_t k = 0; k < slot_count; ++k) {
          const double start_local =
              frame_start + static_cast<double>(k) * opts.slot_s;
          const double end_local =
              frame_start + static_cast<double>(k + 1) * opts.slot_s;
          const double start_abs = rs.round_start + start_local;
          timeline.schedule_at(
              rs.round_start + end_local, "mac.zone.slot",
              [&z, &rs, k, start_abs, frame_end_local](sim::Timeline& t) {
                fire_slot(z, rs, t, k, start_abs, frame_end_local);
              },
              opts.slot_s);
        }
      },
      options.frame_announce_s);
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

  for (std::size_t round = 0; round < schedule.rounds; ++round) {
    RoundState rs;
    rs.round_start = timeline.now();
    rs.options = &options;
    rs.busy = &busy;

    std::vector<ZoneRun> runs;
    for (std::size_t z = 0; z < n; ++z) {
      if (schedule.zones[z].round != round) continue;
      const std::vector<std::uint32_t>& members = layout.members[z];
      if (members.empty()) continue;
      require(members.size() <= 200,
              "run_zoned_inventory: a zone holds more than 200 nodes (shrink "
              "the zone extent)");
      // Zone-local uint8 ids 1..members.size() map back to global indices:
      // the hierarchical addressing that lifts the flat protocol's limit.
      std::vector<std::uint8_t> local_ids(members.size());
      for (std::size_t k = 0; k < members.size(); ++k)
        local_ids[k] = static_cast<std::uint8_t>(k + 1);
      InventoryConfig zone_config = config;
      zone_config.seed = mix(config.seed ^ mix(static_cast<std::uint64_t>(z)));
      runs.push_back(ZoneRun{.zone_id = static_cast<std::uint32_t>(z),
                             .members = &members,
                             .carrier_hz = schedule.zones[z].carrier_hz,
                             .aloha = AlohaRun(local_ids, zone_config)});
    }
    rs.zones = &runs;

    // `runs` is stable from here on: callbacks hold references into it.
    for (ZoneRun& z : runs) {
      if (z.aloha.done()) {
        timeline.charge("mac.zone.inventory.busy_s", 0.0);
        busy.add(0.0);
        continue;
      }
      ++rs.active;
      schedule_frame(z, rs, timeline);
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
