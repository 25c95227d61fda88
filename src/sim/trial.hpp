// The unified trial taxonomy of the Monte-Carlo engine.
//
// Every experiment the engine can repeat is one of four trial kinds:
//   * kUplink   -- one single-link waveform-level backscatter uplink,
//   * kNetwork  -- one concurrent multi-node FDMA frame,
//   * kTimeline -- one discrete-event network round (cold-start, inventory,
//                  poll) on a trial-local sim::Timeline,
//   * kField    -- one deployment-scale field round: spatially culled link
//                  budget over the whole NodeField plus a zoned inventory
//                  with FDMA channel reuse, on a trial-local sim::Timeline.
// `Session::run_trial` and `BatchRunner::run` dispatch on TrialKind, either
// at compile time (template parameter, typed result) or at run time (enum
// value, std::variant result -- the form the campaign engine and the worker
// protocol use, where the kind arrives over the wire).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "mac/inventory.hpp"
#include "mac/scheduler.hpp"

namespace pab::sim {

enum class TrialKind : std::uint8_t {
  kUplink = 0,
  kNetwork = 1,
  kTimeline = 2,
  kField = 3,
};
inline constexpr std::size_t kTrialKindCount = 4;

[[nodiscard]] constexpr const char* to_string(TrialKind kind) {
  switch (kind) {
    case TrialKind::kUplink: return "uplink";
    case TrialKind::kNetwork: return "network";
    case TrialKind::kTimeline: return "timeline";
    case TrialKind::kField: return "field";
  }
  return "unknown";
}

// Parse the names printed by to_string (CLI flags, campaign specs).
[[nodiscard]] constexpr std::optional<TrialKind> trial_kind_from(
    std::string_view name) {
  if (name == "uplink") return TrialKind::kUplink;
  if (name == "network") return TrialKind::kNetwork;
  if (name == "timeline") return TrialKind::kTimeline;
  if (name == "field") return TrialKind::kField;
  return std::nullopt;
}

// Protocol- and energy-level knobs for timeline trials.  The defaults
// describe a small battery-free deployment: nodes cold-start from an empty
// supercapacitor under ~mW harvest, get discovered by the timed slotted
// ALOHA inventory once powered, then answer a poll round.  Link outcomes at
// this level are protocol abstractions (per-reply decode/CRC probabilities)
// rather than full waveform simulations -- kUplink/kNetwork remain the
// sample-level paths.
struct TimelineRoundConfig {
  mac::InventoryConfig inventory{};
  mac::TimedInventoryOptions slots{};  // `available` is filled in per run
  mac::SchedulerConfig scheduler{};
  // Node energy trajectory.
  double tick_s = 0.02;         // lifecycle harvest integration step
  double idle_load_w = 124e-6;  // paper 6.4 idle draw
  double v_ceiling = 5.0;
  double capacitance_f = 200e-6;
  double base_harvest_w = 1.5e-3;  // nominal harvested DC power per node
  double harvest_jitter = 0.3;     // per-node uniform +-fraction of nominal
  // Per-node random drift speed bound [m/s]: node motion modulates harvest
  // power through the time-varying path gain, sampled at tick timestamps.
  double max_drift_mps = 0.25;
  double horizon_s = 60.0;  // lifecycle ticking horizon
  // Protocol-level uplink model for the poll phase.
  double decode_prob = 0.85;  // P(decoded | node powered)
  double crc_prob = 0.10;     // P(reply arrives but fails CRC | powered)
  std::size_t uplink_bits = 76;
  double uplink_bitrate = 1000.0;
  bool keep_log = true;  // retain the event log in the result
};

// Knobs for deployment-scale field trials.  The trial computes the culled
// pairwise link budget of the whole NodeField (spatial index + gain floor +
// quantized shared tap cache) and then runs one zoned inventory round with
// FDMA channel reuse; `brute_force` switches to the reference O(n^2) path
// (every pair, exact per-pair tap keys) that the deployment_scale bench
// compares against.
struct FieldRoundConfig {
  // Cull node-node links whose one-way amplitude gain falls below this floor.
  // The floor models *interference* coupling, not a communication budget: a
  // backscatter reflection is the one-way gain squared times a small scatter
  // coefficient, so a pair below -34 dB one-way (~50 m at 15 kHz) sits below
  // the reader's noise floor and cannot perturb another zone's inventory.
  double gain_floor = 0.02;
  double quant_cell_m = 0.5;     // tap-cache geometry quantization (0 = exact)
  bool brute_force = false;      // reference path: no culling, no sharing
  double zone_extent_m = 100.0;  // horizontal zone size for the zoned MAC
  double frame_announce_s = 0.05;  // zoned inventory timing
  double slot_s = 0.02;
  bool keep_log = true;  // retain the master event log in the result
  // Cross-zone interference (off by default: concurrently inventoried zones
  // are then treated as perfectly silent to each other, bit-identical to the
  // historical schedule).  When on, each slot's SINR is the singleton's
  // reader-path power over the noise floor plus every concurrent other-zone
  // transmitter's reader-path power through the FDMA rejection mask; a
  // singleton below the capture threshold is a CRC failure (counted as a
  // collision plus an interference_corrupted_slots tally).
  bool interference = false;
  // Reader-referred noise power in amplitude^2 units (the reader-path
  // amplitudes are products of two one-way coherent gains, so open-water
  // singleton powers sit around 1e-8..1e-4; the default keeps an isolated
  // zone comfortably above threshold while letting co-channel aggregates
  // matter).
  double noise_power = 1e-12;
  double capture_threshold_db = 6.0;   // singleton decodes iff SINR >= this
  double rejection_passband_hz = 1000.0;   // FDMA receive-filter mask
  double rejection_slope_db_per_khz = 30.0;
  double rejection_floor_db = 40.0;
};

// Per-run options of the unified entry points.  Only the kinds that need
// configuration have a member; kUplink and kNetwork read everything from the
// Scenario.
struct TrialOptions {
  TimelineRoundConfig timeline{};
  FieldRoundConfig field{};
};

}  // namespace pab::sim
