// Session: the executable counterpart of a Scenario.
//
// A Session instantiates the scenario's hardware once (projector, recto-piezo
// front ends, link/network simulators) and owns the memoized caches that make
// Monte-Carlo aggregation cheap:
//   * image-method tap sets, keyed by (endpoint, endpoint, carrier) in a
//     shared channel::TapCache, and
//   * recto-piezo modulation responses (the BVD + matching-network walk),
//     keyed by (front end, carrier, bitrate).
// Both caches are thread-safe: one Session serves trials to every worker of a
// sim::BatchRunner concurrently.  Each trial draws all of its randomness from
// a per-trial RNG substream split off `scenario().medium.seed`, so per-trial
// results are bit-identical at any thread count.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <tuple>
#include <variant>
#include <vector>

#include "core/link.hpp"
#include "core/network.hpp"
#include "mac/inventory.hpp"
#include "mac/scheduler.hpp"
#include "obs/metrics.hpp"
#include "phy/workspace.hpp"
#include "sim/scenario.hpp"
#include "sim/timeline.hpp"
#include "sim/trial.hpp"
#include "util/error.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace pab::sim {

// Deterministic substream derivation: seed for trial `stream` of a run seeded
// with `base_seed` (the std::seed_seq generate algorithm, stable across
// platforms and thread schedules; implemented without seed_seq's heap
// allocation and verified bit-equal against it in the test suite).
[[nodiscard]] std::uint64_t substream_seed(std::uint64_t base_seed,
                                           std::uint64_t stream);

// ---- Per-kind trial results -------------------------------------------------
// One single-link uplink trial: draw `waveform.payload_bits` random bits,
// simulate the backscatter uplink, decode with the standard receiver.
struct UplinkTrial {
  pab::Bits sent;
  phy::DemodResult demod;
  double ber = 0.0;
  double incident_pressure_pa = 0.0;
  double modulation_pressure_pa = 0.0;
};

// One discrete-event network round (see TimelineRoundConfig in sim/trial.hpp).
struct TimelineRunResult {
  std::vector<std::uint8_t> identified;  // inventory discovery order
  mac::InventoryStats inventory;
  mac::TransactionStats poll;
  double simulated_s = 0.0;
  std::size_t events_processed = 0;
  double harvested_j = 0.0;
  double consumed_j = 0.0;
  std::size_t power_ups = 0;
  std::size_t brown_outs = 0;
  std::vector<TimelineEvent> event_log;  // full audit log of the round
};

// One deployment-scale field round (see FieldRoundConfig in sim/trial.hpp):
// the culled pairwise link budget of the whole NodeField plus one zoned
// inventory with FDMA channel reuse.
struct FieldRunResult {
  std::size_t population = 0;
  // Link-budget census.
  double cull_radius_m = 0.0;      // gain-floor crossing distance
  std::uint64_t total_pairs = 0;   // n * (n-1) / 2
  std::uint64_t kept_pairs = 0;    // pairs within the cull radius
  std::uint64_t culled_pairs = 0;
  double mean_pair_gain = 0.0;     // mean coherent gain over kept pairs
  double mean_reader_gain = 0.0;   // mean coherent projector->node gain
  // Tap-cache economics of this trial (per-trial cache, so the sharing the
  // quantized keys buy is directly visible).
  std::uint64_t tap_evaluations = 0;
  std::uint64_t tap_lookups = 0;
  // Zoned MAC round.
  std::size_t zones = 0;
  std::size_t zone_colors = 0;
  std::size_t zone_rounds = 0;
  std::size_t channels = 0;        // distinct FDMA carriers in the zone plan
  std::vector<std::uint32_t> identified;  // global indices, discovery order
  mac::InventoryStats inventory;
  // Cross-zone interference ledger (zero when the model is off): singleton
  // replies demoted to CRC failures by the SINR test, and the mean SINR (dB)
  // over every evaluated singleton slot.
  std::uint64_t interference_corrupted_slots = 0;
  double mean_slot_sinr_db = 0.0;
  // Model-level link quality implied by the mean slot SINR in the scheme's
  // occupied bandwidth (phy::link_quality_from_snr); zeros when the
  // interference model is off (no SINR ledger to derive from).
  phy::LinkQuality slot_quality;
  double simulated_s = 0.0;
  double node_hours = 0.0;  // population * simulated_s / 3600
  std::size_t events_processed = 0;
  std::vector<TimelineEvent> event_log;  // master timeline audit log
};

// Compile-time kind -> result mapping of the unified run API.
template <TrialKind K>
struct TrialTraits;
template <>
struct TrialTraits<TrialKind::kUplink> {
  using Result = UplinkTrial;
};
template <>
struct TrialTraits<TrialKind::kNetwork> {
  using Result = core::NetworkRunResult;
};
template <>
struct TrialTraits<TrialKind::kTimeline> {
  using Result = TimelineRunResult;
};
template <>
struct TrialTraits<TrialKind::kField> {
  using Result = FieldRunResult;
};

// Runtime-kind result: what Session::run_trial(TrialKind, ...) returns.  The
// alternative index equals the TrialKind value.
using TrialResult = std::variant<UplinkTrial, core::NetworkRunResult,
                                 TimelineRunResult, FieldRunResult>;

class Session {
 public:
  // Instrumentation (cache hit/miss counters, per-trial decode latency
  // histograms -- `sim.session.*`, `channel.tapcache.*`, `phy.demod.*`)
  // lands in `metrics`: the process-global registry by default (so bench
  // sidecars see every session), or an explicit registry for isolated
  // accounting in tests.  The registry must outlive the session.  All
  // instruments are relaxed atomics and never touch a trial's RNG substream,
  // so per-trial results stay bit-identical with metrics enabled.
  explicit Session(Scenario scenario,
                   obs::MetricRegistry* metrics = &obs::MetricRegistry::global());

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const core::Projector& projector() const { return projector_; }
  [[nodiscard]] const circuit::RectoPiezo& front_end(std::size_t j = 0) const {
    return front_ends_.at(j);
  }
  [[nodiscard]] std::size_t node_count() const { return scenario_.node_count(); }
  [[nodiscard]] const std::shared_ptr<channel::TapCache>& tap_cache() const {
    return tap_cache_;
  }
  [[nodiscard]] const core::LinkSimulator& link() const { return link_; }

  // Memoized recto-piezo modulation response of node `j` at (carrier,
  // bitrate).  The first call per key walks the circuit model; later calls
  // (and concurrent callers) are served from the cache.  Each evaluation
  // counts one `sim.session.modulation_cache_misses`, every other call one
  // `sim.session.modulation_cache_hits`.
  [[nodiscard]] const core::ModulationStates& modulation(std::size_t j,
                                                         double carrier_hz,
                                                         double bitrate) const;

  // RNG substream for one trial (all of the trial's randomness).
  [[nodiscard]] pab::Rng trial_rng(std::uint64_t trial) const {
    return pab::Rng(substream_seed(scenario_.medium.seed, trial));
  }

  // ---- Monte-Carlo trials ---------------------------------------------------
  // Unified entry point, compile-time kind: one trial of kind K with a typed
  // result.  kUplink draws `waveform.payload_bits` random bits, simulates the
  // backscatter uplink, and decodes with the standard receiver (decode
  // failures surface as the demodulator's error through Expected, and a
  // projector, hydrophone or node 0 outside the tank as kInvalidArgument).
  // kNetwork runs one concurrent multi-node frame per the scenario's FDMA
  // plan (requires as many front ends and carriers as nodes, all inside the
  // tank).  kTimeline runs one full discrete-event round: per-node
  // lifecycles (cold-start, duty cycle, brownout/recover) tick on a
  // trial-local Timeline while the timed inventory and then a poll round run
  // through the same event queue, so a node that browns out mid-inventory
  // misses its slot and rejoins after recharge.  Every kind draws all
  // randomness from trial_rng(trial): results are bit-identical at any
  // BatchRunner thread count.
  //
  // This is the one instrumented trial path: every kind counts
  // `sim.session.trials` and `sim.session.<kind>.trials` and lands one
  // sample in `sim.session.trial_seconds`, failed trials included.
  template <TrialKind K>
  [[nodiscard]] pab::Expected<typename TrialTraits<K>::Result> run_trial(
      std::uint64_t trial, const TrialOptions& opts = {}) const {
    typename TrialTraits<K>::Result out;
    const pab::Expected<bool> ok = run_kind<K>(trial, opts, out);
    if (!ok.ok()) return ok.error();
    return out;
  }

  // Unified entry point, runtime kind: the form the campaign engine and the
  // worker protocol use, where the kind arrives over the wire.  The variant
  // alternative index equals the kind value.
  [[nodiscard]] pab::Expected<TrialResult> run_trial(
      TrialKind kind, std::uint64_t trial, const TrialOptions& opts = {}) const;

  // Zero-allocation uplink variant: trial scratch (workspace arena + waveform
  // buffers) is leased from an internal pool keyed by nothing -- one context
  // per concurrently in-flight trial, reused across trials.  `out` fields
  // resize in place, so a caller that reuses one UplinkTrial per worker sees
  // no heap allocation after the first few trials.  Same instrumented path
  // as run_trial<kUplink>, so results are bit-identical.
  [[nodiscard]] pab::Expected<bool> run_into(std::uint64_t trial,
                                             UplinkTrial& out) const;

 private:
  struct TrialContext;

  // The instrumented dispatch behind run_trial and run_into: counts and
  // times the trial, owns its per-trial scratch (a leased TrialContext for
  // kUplink, a Timeline for kTimeline/kField), runs the kind's body into
  // `out`, and publishes the scratch's gauges.  Instantiated for every kind
  // in session.cpp.
  template <TrialKind K>
  [[nodiscard]] pab::Expected<bool> run_kind(
      std::uint64_t trial, const TrialOptions& opts,
      typename TrialTraits<K>::Result& out) const;

  // Per-kind bodies behind run_kind: no instrumentation of their own.
  [[nodiscard]] pab::Expected<bool> uplink_into(std::uint64_t trial,
                                                TrialContext& ctx,
                                                UplinkTrial& out) const;
  [[nodiscard]] pab::Expected<bool> network_into(
      std::uint64_t trial, core::NetworkRunResult& out) const;
  [[nodiscard]] pab::Expected<bool> timeline_into(
      std::uint64_t trial, const TimelineRoundConfig& config, Timeline& tl,
      TimelineRunResult& out) const;
  [[nodiscard]] pab::Expected<bool> field_into(std::uint64_t trial,
                                               const FieldRoundConfig& config,
                                               Timeline& tl,
                                               FieldRunResult& out) const;

  Scenario scenario_;
  obs::MetricRegistry* metrics_;
  std::shared_ptr<channel::TapCache> tap_cache_;
  core::Projector projector_;
  std::vector<circuit::RectoPiezo> front_ends_;
  core::LinkSimulator link_;
  std::optional<core::MultiNodeSimulator> network_;  // built when placements allow
  bool uplink_placeable_ = false;  // projector, hydrophone, node 0 in the tank

  using ModKey = std::tuple<std::size_t, double, double>;
  mutable std::shared_mutex modulation_mutex_;
  mutable std::map<ModKey, core::ModulationStates> modulation_cache_;

  // Per-trial scratch of uplink trials: a workspace (arena + cached scheme
  // receiver) plus the synthesis/decode result buffers.  Pooled like the tap
  // cache -- one context per concurrently in-flight trial, leased per trial
  // and returned warm, so steady-state trials allocate nothing.
  struct TrialContext {
    phy::Workspace workspace;
    core::LinkSimulator::DecodedRun decoded;
  };
  mutable util::Pool<TrialContext> trial_contexts_;

  // Instruments resolved once at construction (registry-lifetime pointers).
  obs::Counter* n_trials_ = nullptr;
  obs::Counter* n_decode_failures_ = nullptr;
  obs::Counter* n_mod_hits_ = nullptr;
  obs::Counter* n_mod_misses_ = nullptr;
  obs::Histogram* t_trial_ = nullptr;
  // sim.session.<kind>.trials, indexed by TrialKind.
  std::array<obs::Counter*, kTrialKindCount> n_kind_trials_{};
  // sim.session.<kind>.events of the two Timeline kinds.
  obs::Counter* n_timeline_events_ = nullptr;
  obs::Counter* n_field_events_ = nullptr;
  // The most recent Timeline trial's clock (`sim.timeline.*`, the names
  // Timeline::export_to publishes).
  obs::Gauge* g_timeline_events_ = nullptr;
  obs::Gauge* g_timeline_simulated_ = nullptr;
  obs::Gauge* g_timeline_pending_ = nullptr;
  // Arena footprint of the most recent uplink trial's workspace (bytes /
  // blocks): how much scratch one trial needs and whether it ever re-grew.
  obs::Gauge* g_arena_capacity_ = nullptr;
  obs::Gauge* g_arena_high_water_ = nullptr;
  obs::Gauge* g_arena_blocks_ = nullptr;
};

}  // namespace pab::sim
