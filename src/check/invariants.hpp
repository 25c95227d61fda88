// Cross-layer invariant library.
//
// Each checker runs one seeded randomized trial of a property the paper's
// headline figures rest on (airtime, energy, slot, and sample accounting) and
// reports pass or a violation with a human-readable detail string.  Checkers
// that guard a specific implementation take that behaviour as an injectable
// "subject" defaulting to the real code: the mutation smoke-tests
// (tests/test_check.cpp) feed each checker the historical buggy behaviour and
// assert a violation is reported -- proof the harness has teeth, not just
// green lights.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "channel/spatial.hpp"
#include "check/generators.hpp"
#include "dsp/signal.hpp"
#include "energy/ledger.hpp"
#include "energy/planner.hpp"
#include "mac/inventory.hpp"
#include "mac/rate_control.hpp"
#include "mac/scheduler.hpp"
#include "mac/zones.hpp"
#include "phy/modem.hpp"
#include "sim/timeline.hpp"
#include "util/error.hpp"

namespace pab::check {

struct CheckResult {
  bool ok = true;
  std::string detail;  // empty when ok; names the violated property otherwise

  [[nodiscard]] static CheckResult pass() { return {}; }
  [[nodiscard]] static CheckResult fail(std::string d) {
    return {false, std::move(d)};
  }
};

// --- injectable subjects -----------------------------------------------------

// Fractional-delay interpolation (channel::sample_at semantics).
using SampleFn = std::function<dsp::cplx(std::span<const dsp::cplx>, double)>;

// Rate controller: feed observations, return the index after each and
// whether that observation changed the rate.
struct RateStep {
  std::size_t index = 0;
  bool changed = false;
};
using RateTraceFn = std::function<std::vector<RateStep>(
    const mac::RateControlConfig&, std::span<const RateObservation>)>;

// Scheduler: run transactions against a scripted link until the script is
// exhausted, return the accumulated stats.
using SchedulerRunFn = std::function<mac::TransactionStats(
    const mac::SchedulerConfig&, std::span<const LinkOutcome>,
    std::size_t uplink_bits, double uplink_bitrate)>;

// Inventory: run_inventory semantics.
using InventoryFn = std::function<std::vector<std::uint8_t>(
    std::span<const std::uint8_t>, const mac::InventoryConfig&,
    mac::InventoryStats*)>;

// Link-quality probe: demodulate an FM0 envelope capture and return the full
// result (bits + snr_db + LinkQuality) -- the surface the EVM/MER/CN0
// invariant audits.
using LinkQualityFn = std::function<pab::Expected<phy::DemodResult>(
    std::span<const double> envelope, double sample_rate, std::size_t n_bits,
    const phy::DemodConfig&)>;

// Spatial culling: cull_pairs semantics (index + radius -> kept pair list).
using CullFn =
    std::function<std::vector<std::pair<std::uint32_t, std::uint32_t>>(
        const channel::SpatialIndex&, double radius_m, channel::CullStats*)>;

// Ledger: apply entries, return total_consumed().
using LedgerTotalFn = std::function<double(
    std::span<const std::pair<energy::Category, double>>)>;

// Planner: recharge_time_s semantics.
using RechargeFn = std::function<pab::Expected<double>(
    const energy::EnergyPlanner&, double harvest_w,
    const energy::TransactionCost&)>;

// Timeline: execute a generated op script against a sim::Timeline, return
// everything the monotonicity invariant inspects.
struct TimelineProbe {
  std::vector<sim::TimelineEvent> log;
  double now = 0.0;
  std::size_t events_processed = 0;
};
using TimelineRunFn =
    std::function<TimelineProbe(std::span<const TimelineOp>)>;

// Timeline-mode scheduler + energy ledger: run a scripted transact
// sequence with ledger charges interleaved, all on one Timeline; return the
// live accounting plus the event log it must reconstruct to.
struct TimedRunProbe {
  mac::TransactionStats stats;
  std::array<double, static_cast<std::size_t>(energy::Category::kCount)>
      ledger_totals{};
  std::vector<sim::TimelineEvent> log;
};
using TimedSchedulerRunFn = std::function<TimedRunProbe(
    const mac::SchedulerConfig&, std::span<const LinkOutcome>,
    std::span<const std::pair<energy::Category, double>>,
    std::size_t uplink_bits, double uplink_bitrate)>;

// Zoned inventory: run_zoned_inventory semantics on a fresh Timeline.  The
// subject gets the generated scenario plus the interference model to apply
// (the checker varies the model across calls: off, as generated, and the
// capture-threshold extremes) and returns the result with the event log it
// must reconstruct to.
struct ZonedRunProbe {
  mac::ZonedInventoryResult result;
  std::vector<sim::TimelineEvent> log;
  double now = 0.0;
};
using ZonedRunFn = std::function<ZonedRunProbe(
    const ZonedScenario&, const mac::ZoneInterferenceModel&)>;

// The real implementations (default subjects).
[[nodiscard]] SampleFn real_sample_at();
[[nodiscard]] LinkQualityFn real_link_quality();
[[nodiscard]] RateTraceFn real_rate_trace();
[[nodiscard]] SchedulerRunFn real_scheduler_run();
[[nodiscard]] InventoryFn real_inventory();
[[nodiscard]] CullFn real_cull();
[[nodiscard]] LedgerTotalFn real_ledger_total();
[[nodiscard]] RechargeFn real_recharge();
[[nodiscard]] TimelineRunFn real_timeline_run();
[[nodiscard]] TimedSchedulerRunFn real_timed_scheduler_run();
[[nodiscard]] ZonedRunFn real_zoned_inventory();

// --- invariant checkers ------------------------------------------------------

// channel.sample_interpolation: sample_at reads back x[i] exactly at every
// integer position (including the last), is zero outside [0, size), and is
// bounded by the record's max magnitude (convex interpolation).
[[nodiscard]] CheckResult check_sample_interpolation(
    std::uint64_t seed, const SampleFn& subject = real_sample_at());

// channel.causality: propagate_moving / propagate_wavy emit exact zeros
// before the direct-path flight time and stay within the per-sample path
// gain bound (no free energy from interpolation or the image path).
[[nodiscard]] CheckResult check_channel_causality(std::uint64_t seed);

// channel.spatial_cull: on a generated open-water field, spatial culling is
// exactly the brute-force O(n^2) distance threshold -- same pair list (sorted
// i<j), conserved pair counts -- independent of the index's grid cell size,
// and the gain-floor audit holds: every culled pair's amplitude-gain
// estimator sits below the floor, every kept pair's at or above it (so the
// cull can never silently drop a link that matters).  The mean-gain
// accumulation set is audited too: the gain sum over the kept list equals
// the brute within-radius sum exactly, and strictly excludes culled pairs
// (the historical field-census bug summed every pair while dividing by the
// kept count).
[[nodiscard]] CheckResult check_spatial_cull(std::uint64_t seed,
                                             const CullFn& subject = real_cull());

// mac.rate_control: index moves by at most one per observation, stays inside
// the table, and every upshift is justified by up_streak trailing
// observations that are all CRC-clean with up-margin headroom.
[[nodiscard]] CheckResult check_rate_control(
    std::uint64_t seed, const RateTraceFn& subject = real_rate_trace());

// mac.scheduler_airtime: elapsed_s is exactly reconstructible from the
// counters -- attempts * (downlink + turnaround) + (successes +
// crc_failures) * uplink_time -- and the counters themselves are conserved
// (attempts = successes + crc_failures + no_response, retries consistent).
[[nodiscard]] CheckResult check_scheduler_airtime(
    std::uint64_t seed, const SchedulerRunFn& subject = real_scheduler_run());

// mac.inventory: identified ids are unique members of the population,
// singletons == identified count, singletons + collisions + empties == slots,
// and an early-terminating inventory identified the whole population.
[[nodiscard]] CheckResult check_inventory_conservation(
    std::uint64_t seed, const InventoryFn& subject = real_inventory());

// energy.ledger: per-category totals equal the entry sums, total_consumed is
// exactly the sum of the consumption categories (harvested excluded, never
// negative), and the exported gauges agree.
[[nodiscard]] CheckResult check_ledger_conservation(
    std::uint64_t seed, const LedgerTotalFn& subject = real_ledger_total());

// energy.planner_recharge: positive harvest yields a positive, finite
// recharge time equal to transaction_energy / harvest; non-positive harvest
// is an error, never a sentinel value.
[[nodiscard]] CheckResult check_planner_recharge(
    std::uint64_t seed, const RechargeFn& subject = real_recharge());

// phy.decode_roundtrip: FM0 modulate -> randomized perturbation (lead-in,
// amplitude, inversion, mild noise) -> demodulate returns the transmitted
// bits exactly.
[[nodiscard]] CheckResult check_decode_roundtrip(std::uint64_t seed);

// phy.link_quality: the soft metrics every decode publishes are internally
// consistent and track the channel -- EVM/MER/CN0 finite and in range, CN0 =
// MER + 10log10(detection bandwidth) exactly, EVM = 10^(-MER/20) off the
// clamp, FM0 MER coincides with the packet SNR estimate, and a noisier burst
// never reports better MER (or lower EVM) than a clean one.
[[nodiscard]] CheckResult check_link_quality(
    std::uint64_t seed, const LinkQualityFn& subject = real_link_quality());

// sim.scenario_wiring: generated scenarios keep their derived accessors and
// fluent copies consistent (node_count matches front ends, node_position
// indexes correctly, with_seed/with_waveform touch only their field).
[[nodiscard]] CheckResult check_scenario_wiring(std::uint64_t seed);

// timeline.monotonic_clock: over a random op script, the event log's times
// never decrease, entries at equal time are strictly ordered by sequence
// number, the final clock is at or past the last log entry,
// events_processed == log size, and a re-run of the same script yields a
// bit-identical probe (no wall-clock or ambient nondeterminism).
[[nodiscard]] CheckResult check_timeline_monotonic(
    std::uint64_t seed, const TimelineRunFn& subject = real_timeline_run());

// timeline.event_reconstruction: a timeline-mode scheduler run with ledger
// charges interleaved (each mirrored into the log) is fully auditable from
// the event log alone -- elapsed_s re-derives bit-exactly from the mac
// airtime events (Neumaier in log order), every counter from its marker
// events, and each ledger category total bit-exactly from the
// "energy.<category>" entries.
// The zoned-inventory path is covered too, now that its slots run on the
// master timeline: frames/slots re-count from their marker events, busy_s
// re-sums bit-exactly from the per-zone "mac.zone.inventory.busy_s" charges,
// simulated_s replays from the per-round "mac.zone.round" walls, and the
// final clock lands exactly on simulated_s (the busy/wall split the old
// sum-under-one-label booking conflated).
[[nodiscard]] CheckResult check_timeline_reconstruction(
    std::uint64_t seed,
    const TimedSchedulerRunFn& subject = real_timed_scheduler_run(),
    const ZonedRunFn& zoned_subject = real_zoned_inventory());

// mac.zone_interference: on a generated zoned field with the SINR model on,
// the slot ledger stays conserved under corruption -- clean singletons +
// collisions + empties == slots, every singleton reply gets exactly one SINR
// verdict (evaluated == identified + corrupted), corrupted slots are booked
// as collisions, identified ids are unique members -- and the capture
// threshold behaves at its extremes: an always-capture threshold reproduces
// the interference-off run bit for bit, a never-capture threshold corrupts
// every evaluated slot and identifies nobody.
[[nodiscard]] CheckResult check_zone_interference(
    std::uint64_t seed, const ZonedRunFn& subject = real_zoned_inventory());

// campaign.shard_merge: a campaign's records and deterministic counters are
// invariant under the shard partition -- any shard size (including one shard
// per point) folds to byte-identical records_bytes() and equal counter
// totals, the property the multi-process executor's correctness rests on.
[[nodiscard]] CheckResult check_campaign_shard_merge(std::uint64_t seed);

// campaign.resume: a campaign interrupted mid-flight (max_shards cap, a
// stand-in for a killed run) and resumed from its checkpoint produces
// records byte-identical to the uninterrupted run, and the interruption
// itself reports kTimeout rather than partial results.
[[nodiscard]] CheckResult check_campaign_resume(std::uint64_t seed);

// --- the suite ---------------------------------------------------------------

struct Invariant {
  std::string name;    // dot-separated, e.g. "mac.scheduler_airtime"
  std::string guards;  // one line: what breaks silently without it
  std::function<CheckResult(std::uint64_t)> run;
};

// Every invariant above, wired to the real implementations.
[[nodiscard]] std::vector<Invariant> default_invariants();

}  // namespace pab::check
