// Seeded random-input generators for the cross-layer invariant audit.
//
// Every generator is a pure function of the Rng handed in: the audit driver
// (check/audit.hpp) derives one Rng per (invariant, trial) from a base seed,
// so any reported violation is reproducible from its trial seed alone.  The
// generators deliberately bias toward the regions where accounting bugs hide
// (record tails, CRC-failure runs inside good-SNR streaks, lossy retry
// sequences, q-bound extremes) rather than sampling uniformly.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "channel/timevarying.hpp"
#include "dsp/signal.hpp"
#include "energy/ledger.hpp"
#include "energy/planner.hpp"
#include "mac/inventory.hpp"
#include "mac/rate_control.hpp"
#include "mac/scheduler.hpp"
#include "mac/zones.hpp"
#include "sim/scenario.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace pab::check {

// --- channel ----------------------------------------------------------------

// Free-field mobility geometry: metre-scale ranges, swimmer-to-ROV speeds,
// tank-to-brackish water properties.
[[nodiscard]] channel::MovingPathConfig gen_moving_path(Rng& rng);

// Two-path surface geometry with both endpoints strictly below the surface.
[[nodiscard]] channel::WavySurfaceConfig gen_wavy_surface(Rng& rng);

// Complex baseband record: a CW burst with random amplitude and phase (and
// optional additive noise), short enough that trial loops stay cheap.
[[nodiscard]] dsp::BasebandSignal gen_baseband_burst(Rng& rng,
                                                     double sample_rate,
                                                     double carrier_hz);

// --- mac --------------------------------------------------------------------

struct RateObservation {
  double snr_db = 0.0;
  bool crc_ok = true;
};

[[nodiscard]] mac::RateControlConfig gen_rate_config(Rng& rng);

// Clustered observation sequence: runs of high-headroom observations with
// occasional CRC failures sprinkled in (exactly the pattern where streak
// accounting bugs hide), interleaved with deep fades.
[[nodiscard]] std::vector<RateObservation> gen_rate_observations(
    Rng& rng, const mac::RateControlConfig& config, std::size_t n);

// Per-attempt link outcome script for scheduler trials.
enum class LinkOutcome : std::uint8_t { kDecoded, kCrcFailure, kSilent };

[[nodiscard]] std::vector<LinkOutcome> gen_link_script(Rng& rng, std::size_t n);
[[nodiscard]] mac::SchedulerConfig gen_scheduler_config(Rng& rng);

// Unique node ids (random subset of 1..255) and inventory bounds, including
// q-bound extremes and populations larger than the first frame.
[[nodiscard]] std::vector<std::uint8_t> gen_population(Rng& rng);
[[nodiscard]] mac::InventoryConfig gen_inventory_config(Rng& rng);

// Zoned-field scenario for the cross-zone interference invariant: a partition
// of global node indices into a few zones (each small enough for zone-local
// uint8 ids), a sparse random interference adjacency (sparse on purpose:
// few colors means several zones share a carrier concurrently, the
// co-channel case where the SINR ledger has to work hardest), reader-path
// amplitudes per global node spanning several decades, and the SINR model
// knobs.  The pieces are kept separate -- the checker assembles
// ZonedInventoryOptions itself so the amplitude span never dangles.
struct ZonedScenario {
  mac::ZoneLayout layout;
  std::vector<double> amplitude;  // reader-path amplitude per global node
  mac::InventoryConfig inventory;
  double frame_announce_s = 0.05;
  double slot_s = 0.02;
  double noise_power = 1e-9;
  double capture_threshold_db = 6.0;
  mac::RejectionMask mask{};
};
[[nodiscard]] ZonedScenario gen_zoned_scenario(Rng& rng);

// Scheduler config for timeline-mode trials: like gen_scheduler_config but
// also exercises finite per-query timeouts (the reconstruction invariant
// does not model the retry protocol, so the timeout's early exit is fair
// game there).
[[nodiscard]] mac::SchedulerConfig gen_timed_scheduler_config(Rng& rng);

// --- sim::Timeline ----------------------------------------------------------

// One scripted operation against a Timeline (clock-monotonicity trials).
// Scripts are generated valid: schedule times never precede the model clock
// at their execution point, and ties (equal fire times) are produced on
// purpose to exercise the (time, sequence) tie-break.
struct TimelineOp {
  enum class Kind : std::uint8_t {
    kScheduleAt,  // time = absolute fire time
    kElapse,      // time = dt
    kCharge,      // instantaneous at now
    kRunUntil,    // time = absolute target
    kRunAll,      // drain the queue
  };
  Kind kind = Kind::kCharge;
  double time = 0.0;
  sim::TimelineLabel label = "";  // unused by kRunUntil and kRunAll
  double value = 0.0;
};

[[nodiscard]] std::vector<TimelineOp> gen_timeline_ops(Rng& rng, std::size_t n);

// --- energy -----------------------------------------------------------------

// Random ledger entries: (category, joules >= 0) pairs covering every
// category, magnitudes spanning uJ..J.
[[nodiscard]] std::vector<std::pair<energy::Category, double>>
gen_ledger_entries(Rng& rng, std::size_t n);

[[nodiscard]] energy::TransactionCost gen_transaction_cost(Rng& rng);

// --- sim --------------------------------------------------------------------

// Random perturbation of the pool_a preset: seed, waveform, placement inside
// the tank, and occasionally extra nodes with their own front ends.
[[nodiscard]] sim::Scenario gen_scenario(Rng& rng);

// Random deployment-scale field spec: generated layout (grid / random /
// clusters), tens-of-nodes populations, open-water densities and depths.
[[nodiscard]] sim::FieldSpec gen_field_spec(Rng& rng);

// Random single-link waveform parameters (decode round-trip trials).
[[nodiscard]] sim::Waveform gen_waveform(Rng& rng);

}  // namespace pab::check
