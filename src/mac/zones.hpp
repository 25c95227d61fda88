// Hierarchical (zoned) inventory scheduling for deployment-scale fields.
//
// A single framed-slotted-ALOHA inventory cannot address 1000+ nodes: node
// ids are uint8 on the wire and every extra node stretches the shared frame.
// The deployment answer is hierarchy -- partition the field into spatial
// zones small enough for the flat protocol, then let *non-interfering* zones
// run concurrently on distinct FDMA carriers (spatial channel reuse), with
// interfering zones serialized into sequential rounds.
//
// Layering: mac sits below channel, so zones arrive as plain data (node
// memberships by global index plus a zone-interference adjacency) computed
// upstream by the sim layer: Session::field_into bins nodes into a grid of
// zone_extent_m cells and joins two zones whose cells lie within the cull
// radius of each other.  Everything here is a pure function of that data:
// greedy coloring in zone-id order, carriers from mac::plan_channels (whose
// over-subscription result maps color -> (carrier, round)), and a
// slot-aligned frame schedule per zone.
//
// Timeline contract: zones scheduled in the same round are concurrent and
// *slot-aligned on the master timeline* -- every frame announcement and reply
// slot is a scheduled master-timeline event at its absolute simulated time,
// so concurrent zones genuinely overlap (and can interfere; see below)
// instead of running on isolated sub-timelines.  Each zone posts one
// "mac.zone.inventory.busy_s" charge carrying its own busy duration when it
// completes; each round posts one "mac.zone.round" entry carrying the round
// wall (the maximum concurrent zone duration -- the honest wall: the reader
// round ends when its slowest zone does).  The master clock advances through
// the scheduled slot events themselves, so busy-time and wall-time are
// separate ledgers that never conflate.  Everything is deterministic: zone
// order, per-zone seeds, and the master log are pure functions of the inputs.
//
// Interference model (optional, off by default): concurrent zones are not
// silent to each other.  While zone z listens to a reply slot, every node of
// another zone z' whose own reply window overlaps it is an interferer: its
// reader-path power (a precomputed per-node amplitude, squared) leaks into
// z's receive filter attenuated by the FDMA RejectionMask between the two
// carriers (0 dB when z and z' share a carrier -- same color, same round).
// A singleton reply decodes only when
//   SINR = a_sig^2 / (noise_power + sum_m a_m^2 * rejection_factor)
// clears the capture threshold; below it the slot is a CRC failure, counted
// as a collision (slot conservation holds) plus a corrupted-slot tally.
// Every node assigned to a slot replies in it: the zoned inventory runs on
// nodes that are powered for the whole round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mac/fdma.hpp"
#include "mac/inventory.hpp"

namespace pab::sim {
class Timeline;
}  // namespace pab::sim

namespace pab::mac {

// Plain-data zone partition handed down from the sim layer.  `members[z]`
// holds ascending global node indices; `adjacency[z]` the zones whose
// concurrent operation would interfere with z (symmetric, no self-loops).
struct ZoneLayout {
  std::vector<std::vector<std::uint32_t>> members;
  std::vector<std::vector<std::uint32_t>> adjacency;
};

struct ZoneAssignment {
  std::uint32_t color = 0;   // interfering zones always differ
  double carrier_hz = 0.0;   // plan.carrier_for(color)
  std::uint32_t round = 0;   // color / plan.channels(): sequential reuse round
};

struct ZoneSchedule {
  ChannelPlan plan;  // distinct carriers + over-subscription bookkeeping
  std::vector<ZoneAssignment> zones;
  std::size_t colors = 0;
  std::size_t rounds = 0;  // sequential rounds (1 unless colors > channels)
};

// Greedy interference coloring in zone-id order (deterministic: lowest free
// color), then color -> (carrier, round) through the over-subscribed channel
// plan: colors beyond the distinct channel count wrap onto the same carriers
// in later rounds.
[[nodiscard]] ZoneSchedule plan_zones(const ZoneLayout& layout);

// Cross-zone interference model, injected as plain data (mac never sees
// positions): the sim layer precomputes each node's reader-path amplitude
// (projector -> node gain times node -> hydrophone gain at the node's zone
// carrier) and mac sums squared amplitudes through the rejection mask.
struct ZoneInterferenceModel {
  bool enabled = false;  // off: bit-identical to the silent-zone schedule
  // Reader-referred noise power in the SINR denominator (amplitude^2 units,
  // the same units as node_amplitude squared).
  double noise_power = 0.0;
  // A singleton decodes iff its slot SINR (dB) reaches this threshold -- the
  // capture effect; below it the reply is a CRC failure.
  double capture_threshold_db = 6.0;
  RejectionMask mask{};  // adjacent-carrier leakage between zone carriers
  // Per *global* node index: reader-path backscatter amplitude.  Must cover
  // every member index when enabled.
  std::span<const double> node_amplitude{};
};

struct ZonedInventoryOptions {
  double frame_announce_s = 0.05;  // per-frame announcement airtime
  double slot_s = 0.02;            // one reply slot
  ZoneInterferenceModel interference{};
};

struct ZonedInventoryResult {
  // Global node indices in discovery order: rounds ascending, zones by id
  // within a round, per-zone discovery order within a zone.
  std::vector<std::uint32_t> identified;
  InventoryStats inventory;  // summed over every zone
  std::size_t zones = 0;
  std::size_t rounds = 0;
  double simulated_s = 0.0;  // sum of per-round maxima (the master wall)
  double busy_s = 0.0;       // sum of per-zone busy durations (>= any round)
  // Interference ledger: singleton replies demoted to CRC failures by the
  // SINR test (each is also counted in inventory.collisions, so slot
  // conservation singletons + collisions + empties == slots still holds).
  std::size_t corrupted_slots = 0;
  // Slots where a SINR was evaluated (exactly the clean + corrupted
  // singleton-reply slots) and the mean SINR over them, dB (0 when none).
  std::size_t sinr_evaluated_slots = 0;
  double mean_slot_sinr_db = 0.0;
};

// Runs the zoned inventory on `timeline`.  Zone-local node ids are uint8
// (1..members), so every zone must hold at most 200 members -- the zoning
// itself is what lifts the flat protocol's uint8 limit to arbitrary
// populations.  Per-zone randomness derives from config.seed and the zone id,
// never from zone execution order.  External events already queued on the
// timeline (lifecycle ticks, pollers) interleave with the zone slots at their
// own absolute timestamps.
[[nodiscard]] ZonedInventoryResult run_zoned_inventory(
    const ZoneLayout& layout, const ZoneSchedule& schedule,
    const InventoryConfig& config, sim::Timeline& timeline,
    const ZonedInventoryOptions& options = {});

}  // namespace pab::mac
