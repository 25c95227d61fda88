#include "sim/session.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "channel/spatial.hpp"
#include "channel/timevarying.hpp"
#include "mac/zones.hpp"
#include "node/lifecycle.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"

namespace pab::sim {

std::uint64_t substream_seed(std::uint64_t base_seed, std::uint64_t stream) {
  // The std::seed_seq::generate algorithm ([rand.util.seedseq]) specialized
  // to four 32-bit input words and two output words.  seed_seq itself keeps a
  // heap-allocated copy of the inputs, which would put one malloc/free pair
  // in every trial; this open-coded version is allocation-free and verified
  // bit-equal against std::seed_seq in the test suite.
  const std::uint32_t v[4] = {static_cast<std::uint32_t>(base_seed),
                              static_cast<std::uint32_t>(base_seed >> 32),
                              static_cast<std::uint32_t>(stream),
                              static_cast<std::uint32_t>(stream >> 32)};
  constexpr std::size_t n = 2;                        // output words
  constexpr std::size_t s = 4;                        // input words
  constexpr std::size_t t = (n - 1) / 2;              // 0
  constexpr std::size_t p = (n - t) / 2;              // 1
  constexpr std::size_t q = p + t;                    // 1
  constexpr std::size_t m = (s + 1 > n) ? s + 1 : n;  // 5
  const auto tmix = [](std::uint32_t x) { return x ^ (x >> 27); };
  std::uint32_t b[n] = {0x8b8b8b8bu, 0x8b8b8b8bu};
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t r1 =
        1664525u * tmix(b[k % n] ^ b[(k + p) % n] ^ b[(k + n - 1) % n]);
    std::uint32_t r2 = r1;
    if (k == 0)
      r2 += static_cast<std::uint32_t>(s);
    else if (k <= s)
      r2 += static_cast<std::uint32_t>(k % n) + v[k - 1];
    else
      r2 += static_cast<std::uint32_t>(k % n);
    b[(k + p) % n] += r1;
    b[(k + q) % n] += r2;
    b[k % n] = r2;
  }
  for (std::size_t k = m; k < m + n; ++k) {
    const std::uint32_t r3 =
        1566083941u * tmix(b[k % n] + b[(k + p) % n] + b[(k + n - 1) % n]);
    const std::uint32_t r4 = r3 - static_cast<std::uint32_t>(k % n);
    b[(k + p) % n] ^= r3;
    b[(k + q) % n] ^= r4;
    b[k % n] = r4;
  }
  return (static_cast<std::uint64_t>(b[1]) << 32) | b[0];
}

Session::Session(Scenario scenario, obs::MetricRegistry* metrics)
    : scenario_(std::move(scenario)),
      metrics_(metrics),
      tap_cache_(std::make_shared<channel::TapCache>(
          scenario_.medium.tank, scenario_.medium.max_image_order,
          scenario_.medium.use_image_method, metrics)),
      projector_(scenario_.make_projector()),
      link_(scenario_.medium, scenario_.placement(), tap_cache_) {
  require(metrics_ != nullptr, "Session: metrics registry must not be null");
  link_.set_metrics(metrics_);
  n_trials_ = &metrics_->counter("sim.session.trials");
  n_decode_failures_ = &metrics_->counter("sim.session.decode_failures");
  n_mod_hits_ = &metrics_->counter("sim.session.modulation_cache_hits");
  n_mod_misses_ = &metrics_->counter("sim.session.modulation_cache_misses");
  t_trial_ = &metrics_->histogram("sim.session.trial_seconds");
  for (std::size_t k = 0; k < kTrialKindCount; ++k)
    n_kind_trials_[k] = &metrics_->counter(
        std::string("sim.session.") + to_string(static_cast<TrialKind>(k)) +
        ".trials");
  n_timeline_events_ = &metrics_->counter("sim.session.timeline.events");
  n_field_events_ = &metrics_->counter("sim.session.field.events");
  g_timeline_events_ = &metrics_->gauge("sim.timeline.events_processed");
  g_timeline_simulated_ = &metrics_->gauge("sim.timeline.simulated_s");
  g_timeline_pending_ = &metrics_->gauge("sim.timeline.pending");
  g_arena_capacity_ = &metrics_->gauge("sim.session.arena.capacity_bytes");
  g_arena_high_water_ = &metrics_->gauge("sim.session.arena.high_water_bytes");
  g_arena_blocks_ = &metrics_->gauge("sim.session.arena.heap_blocks");
  front_ends_.reserve(scenario_.node_count());
  for (std::size_t j = 0; j < scenario_.node_count(); ++j)
    front_ends_.push_back(scenario_.make_front_end(j));

  // The network simulator is only constructible when every node position lies
  // inside the tank; otherwise leave it unset and let run_network report it.
  // Uplink trials trace projector -> node 0 -> hydrophone, so those three
  // must lie inside as well, or uplink_into reports it.
  const channel::Tank& tank = scenario_.medium.tank;
  std::vector<channel::Vec3> nodes;
  nodes.reserve(scenario_.node_count());
  bool placeable = true;
  for (std::size_t j = 0; j < scenario_.node_count(); ++j) {
    nodes.push_back(scenario_.node_position(j));
    placeable = placeable && tank.contains(nodes.back());
  }
  uplink_placeable_ = !nodes.empty() && tank.contains(nodes.front()) &&
                      tank.contains(scenario_.reader.projector) &&
                      tank.contains(scenario_.reader.hydrophone);
  if (placeable) {
    network_.emplace(scenario_.medium, scenario_.reader.projector,
                     scenario_.reader.hydrophone, std::move(nodes),
                     tap_cache_);
  }
}

const core::ModulationStates& Session::modulation(std::size_t j,
                                                  double carrier_hz,
                                                  double bitrate) const {
  const ModKey key{j, carrier_hz, bitrate};
  {
    std::shared_lock lock(modulation_mutex_);
    const auto it = modulation_cache_.find(key);
    if (it != modulation_cache_.end()) {
      n_mod_hits_->add();
      return it->second;
    }
  }
  // Evaluate outside the lock (circuit-model walk); losing a concurrent race
  // is benign, both compute identical values and the first insert wins.  Only
  // the winner counts a miss, so the hit/miss split does not depend on how
  // worker threads interleave.
  const core::ModulationStates states =
      core::modulation_states(front_ends_.at(j), carrier_hz, bitrate);
  std::unique_lock lock(modulation_mutex_);
  const auto [it, inserted] = modulation_cache_.emplace(key, states);
  if (inserted)
    n_mod_misses_->add();
  else
    n_mod_hits_->add();
  return it->second;
}

template <TrialKind K>
pab::Expected<bool> Session::run_kind(
    std::uint64_t trial, [[maybe_unused]] const TrialOptions& opts,
    typename TrialTraits<K>::Result& out) const {
  const obs::ScopedTimer timer(t_trial_);
  n_trials_->add();
  n_kind_trials_[static_cast<std::size_t>(K)]->add();
  if constexpr (K == TrialKind::kUplink) {
    const auto ctx = trial_contexts_.lease();
    const auto ok = uplink_into(trial, *ctx, out);
    // Last write wins; in steady state every pooled workspace reports the
    // same numbers.
    const dsp::Arena& arena = ctx->workspace.arena();
    g_arena_capacity_->set(static_cast<double>(arena.capacity_bytes()));
    g_arena_high_water_->set(static_cast<double>(arena.high_water_bytes()));
    g_arena_blocks_->set(static_cast<double>(arena.block_allocations()));
    return ok;
  } else if constexpr (K == TrialKind::kNetwork) {
    return network_into(trial, out);
  } else {
    Timeline tl;
    const pab::Expected<bool> ok = [&] {
      if constexpr (K == TrialKind::kTimeline)
        return timeline_into(trial, opts.timeline, tl, out);
      else
        return field_into(trial, opts.field, tl, out);
    }();
    if (ok.ok()) {
      // Counters accumulate across trials; the gauges are a last-writer
      // snapshot (benign race under parallel batches -- relaxed atomics).
      (K == TrialKind::kTimeline ? n_timeline_events_ : n_field_events_)
          ->add(tl.events_processed());
      g_timeline_events_->set(static_cast<double>(tl.events_processed()));
      g_timeline_simulated_->set(tl.now());
      g_timeline_pending_->set(static_cast<double>(tl.pending()));
    }
    return ok;
  }
}

template pab::Expected<bool> Session::run_kind<TrialKind::kUplink>(
    std::uint64_t, const TrialOptions&, UplinkTrial&) const;
template pab::Expected<bool> Session::run_kind<TrialKind::kNetwork>(
    std::uint64_t, const TrialOptions&, core::NetworkRunResult&) const;
template pab::Expected<bool> Session::run_kind<TrialKind::kTimeline>(
    std::uint64_t, const TrialOptions&, TimelineRunResult&) const;
template pab::Expected<bool> Session::run_kind<TrialKind::kField>(
    std::uint64_t, const TrialOptions&, FieldRunResult&) const;

pab::Expected<bool> Session::run_into(std::uint64_t trial,
                                      UplinkTrial& out) const {
  return run_kind<TrialKind::kUplink>(trial, {}, out);
}

pab::Expected<TrialResult> Session::run_trial(TrialKind kind,
                                              std::uint64_t trial,
                                              const TrialOptions& opts) const {
  const auto as_variant = [](auto r) -> pab::Expected<TrialResult> {
    if (!r.ok()) return r.error();
    return TrialResult{std::move(r).value()};
  };
  switch (kind) {
    case TrialKind::kUplink:
      return as_variant(run_trial<TrialKind::kUplink>(trial, opts));
    case TrialKind::kNetwork:
      return as_variant(run_trial<TrialKind::kNetwork>(trial, opts));
    case TrialKind::kTimeline:
      return as_variant(run_trial<TrialKind::kTimeline>(trial, opts));
    case TrialKind::kField:
      return as_variant(run_trial<TrialKind::kField>(trial, opts));
  }
  return pab::Error{pab::ErrorCode::kInvalidArgument,
                    "run_trial: unknown trial kind"};
}

pab::Expected<bool> Session::uplink_into(std::uint64_t trial, TrialContext& ctx,
                                         UplinkTrial& out) const {
  if (front_ends_.empty())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "scenario has no front ends"};
  if (!uplink_placeable_)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "projector, hydrophone and node 0 must lie inside the "
                      "tank"};
  const Waveform& w = scenario_.waveform;
  pab::Rng rng = trial_rng(trial);
  out.sent.resize(w.payload_bits);  // reuses capacity in steady state
  rng.bits_into(out.sent);
  // Modulation-response cache key: the scheme's FM0-equivalent switching
  // rate (identity for kFm0, so default-scheme keys are unchanged).
  const core::ModulationStates& states = modulation(
      0, w.carrier_hz,
      phy::scheme_descriptor(w.scheme).effective_bitrate(w.bitrate));
  const auto ok = link_.run_and_decode_into(projector_, states, out.sent, w,
                                            rng, ctx.workspace, ctx.decoded);
  if (!ok.ok()) {
    n_decode_failures_->add();
    return ok.error();
  }

  out.incident_pressure_pa = ctx.decoded.run.incident_pressure_pa;
  out.modulation_pressure_pa = ctx.decoded.run.modulation_pressure_pa;
  std::swap(out.demod, ctx.decoded.demod);
  out.ber = phy::bit_error_rate(out.sent, out.demod.bits);
  return true;
}

pab::Expected<bool> Session::network_into(std::uint64_t trial,
                                          core::NetworkRunResult& out) const {
  if (!network_.has_value())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "scenario nodes not placeable inside the tank"};
  if (scenario_.fdma.carriers_hz.size() != node_count())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "fdma plan must name one carrier per node"};
  if (front_ends_.size() != node_count())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "scenario must specify one front end per node"};
  pab::Rng rng = trial_rng(trial);
  out = network_->run(projector_, front_ends_, scenario_.fdma, rng);
  return true;
}

pab::Expected<bool> Session::timeline_into(std::uint64_t trial,
                                           const TimelineRoundConfig& config,
                                           Timeline& tl,
                                           TimelineRunResult& out) const {
  if (node_count() > 200)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "run_timeline: node ids are uint8 (<= 200 nodes)"};
  if (config.decode_prob < 0.0 || config.crc_prob < 0.0 ||
      config.decode_prob + config.crc_prob > 1.0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "run_timeline: decode/crc probabilities must form a "
                      "distribution"};

  // All of the trial's randomness, drawn in a fixed order: per-node energy
  // and drift parameters first, then the poll-phase link outcomes as the
  // event loop reaches them.  Nothing here reads wall clocks or shared
  // mutable state, so results are bit-identical at any thread count.
  pab::Rng rng = trial_rng(trial);
  tl.set_logging(config.keep_log);

  const double carrier = scenario_.waveform.carrier_hz;
  const std::size_t n = node_count();

  // Per-node lifecycle: harvest power = per-node nominal, modulated by the
  // squared path-gain ratio along the node's drift trajectory (amplitude
  // gain -> power), sampled at each tick's event timestamp.
  std::vector<std::unique_ptr<node::NodeLifecycle>> lifecycles;
  lifecycles.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double nominal =
        config.base_harvest_w *
        (1.0 + config.harvest_jitter * rng.uniform(-1.0, 1.0));
    channel::MovingPathConfig path;
    path.source = scenario_.reader.projector;
    path.rx_start = scenario_.node_position(j);
    path.rx_velocity = {rng.uniform(-config.max_drift_mps, config.max_drift_mps),
                        rng.uniform(-config.max_drift_mps, config.max_drift_mps),
                        rng.uniform(-config.max_drift_mps, config.max_drift_mps)};
    const double g0 =
        std::max(channel::moving_path_gain_at(path, carrier, 0.0), 1e-12);
    node::LifecycleConfig lc;
    lc.tick_s = config.tick_s;
    lc.idle_load_w = config.idle_load_w;
    lc.v_ceiling = config.v_ceiling;
    lc.harvest_power_w = [nominal, path, carrier, g0](double t) {
      const double g = channel::moving_path_gain_at(path, carrier, t);
      return nominal * (g / g0) * (g / g0);
    };
    auto life = std::make_unique<node::NodeLifecycle>(
        static_cast<std::uint8_t>(j + 1),
        energy::Harvester(circuit::Supercapacitor(config.capacitance_f)),
        std::move(lc));
    life->attach(tl, config.horizon_s);
    lifecycles.push_back(std::move(life));
  }

  std::vector<std::uint8_t> population(n);
  for (std::size_t j = 0; j < n; ++j)
    population[j] = static_cast<std::uint8_t>(j + 1);

  // Discovery: timed slotted ALOHA through the event queue.  Lifecycle ticks
  // interleave with the reply slots, so a node that browns out mid-round
  // misses its slot and is retried in a later frame once recharged.
  mac::TimedInventoryOptions slots = config.slots;
  slots.available = [&lifecycles](std::uint8_t id, double) {
    return lifecycles[id - 1]->powered();
  };
  out.identified =
      mac::run_inventory(population, config.inventory, tl, slots,
                         &out.inventory);

  // Poll phase: one transact per identified node, on the same timeline.  The
  // link outcome is a protocol-level abstraction: a powered node decodes /
  // CRC-fails / stays silent by probability; a browned-out node is always
  // silent.  The availability check happens when the link fires, i.e. after
  // the downlink+turnaround airtime has elapsed -- the node must be powered
  // at reply time, not at poll time.
  mac::PollScheduler scheduler(config.scheduler, &tl);
  for (const std::uint8_t id : out.identified) {
    phy::DownlinkQuery query;
    query.address = id;
    const auto link = [&](const phy::DownlinkQuery& q)
        -> pab::Expected<phy::UplinkPacket> {
      const double u = rng.uniform();
      if (!lifecycles[q.address - 1]->powered())
        return pab::Error{pab::ErrorCode::kTimeout, "node browned out"};
      if (u < config.decode_prob) {
        phy::UplinkPacket packet;
        packet.node_id = q.address;
        packet.payload = {q.address, static_cast<std::uint8_t>(trial & 0xff)};
        return packet;
      }
      if (u < config.decode_prob + config.crc_prob)
        return pab::Error{pab::ErrorCode::kCrcMismatch, "bad CRC"};
      return pab::Error{pab::ErrorCode::kNoPreamble, "no reply detected"};
    };
    (void)scheduler.transact(query, link, config.uplink_bits,
                             config.uplink_bitrate);
  }
  out.poll = scheduler.stats();

  for (const auto& life : lifecycles) {
    const auto& ledger = life->harvester().ledger();
    out.harvested_j += ledger.harvested();
    out.consumed_j += ledger.total_consumed();
    out.power_ups += life->power_ups();
    out.brown_outs += life->brown_outs();
  }
  out.simulated_s = tl.now();
  out.events_processed = tl.events_processed();
  if (config.keep_log) out.event_log = tl.log();
  return true;
}

pab::Expected<bool> Session::field_into(std::uint64_t trial,
                                        const FieldRoundConfig& config,
                                        Timeline& tl,
                                        FieldRunResult& out) const {
  const std::size_t n = node_count();
  if (n == 0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "field trial: scenario has no nodes"};
  if (config.gain_floor <= 0.0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "field trial: gain floor must be positive"};
  if (config.quant_cell_m < 0.0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "field trial: quantization cell must be >= 0"};
  if (config.zone_extent_m <= 0.0)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "field trial: zone extent must be positive"};
  if (config.interference &&
      (config.noise_power < 0.0 || config.rejection_passband_hz < 0.0 ||
       config.rejection_slope_db_per_khz < 0.0 ||
       config.rejection_floor_db < 0.0))
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "field trial: interference parameters must be >= 0"};

  const double carrier = scenario_.waveform.carrier_hz;
  const auto& positions = scenario_.field.positions();
  const channel::Vec3& extent = scenario_.medium.tank.size;
  const double diagonal =
      std::sqrt(extent.x * extent.x + extent.y * extent.y + extent.z * extent.z);

  out.population = n;

  // Per-trial tap cache: exact per-pair keys on the brute-force reference
  // path, quantized shared keys on the culled path -- so the sharing the
  // quantized geometry buys is measured within one trial, not smuggled in
  // from earlier trials.
  const channel::TapCache cache(
      scenario_.medium.tank, scenario_.medium.max_image_order,
      scenario_.medium.use_image_method, metrics_,
      channel::TapQuantization{config.brute_force ? 0.0 : config.quant_cell_m});

  // Reader -> node budget: always O(n).
  double reader_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    reader_sum += channel::coherent_gain(
        *cache.taps(scenario_.reader.projector, positions[j], carrier), carrier);
  out.mean_reader_gain = reader_sum / static_cast<double>(n);

  // Node-node interference budget.  The gain floor is an amplitude-coupling
  // threshold: a pair whose one-way gain estimator falls below it cannot
  // interfere above the backscatter noise floor, and the estimator
  // (path_amplitude_gain) is monotone in distance, so thresholding is exactly
  // a radius cut -- which the spatial index answers without touching the
  // O(n^2) pair space.
  const double radius = std::min(
      channel::cull_radius_m(config.gain_floor, carrier, diagonal), diagonal);
  out.cull_radius_m = radius;
  double pair_sum = 0.0;
  if (config.brute_force) {
    // The reference path still *evaluates* every O(n^2) pair (that is the
    // cost being compared against), but mean_pair_gain accumulates only the
    // within-radius pairs -- the same set, in the same lexicographic order,
    // as the culled path.  Summing all pairs here diluted the parity metric
    // with sub-floor gains the production path deliberately excludes.
    out.total_pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double gain = channel::coherent_gain(
            *cache.taps(positions[i], positions[j], carrier), carrier);
        if (channel::distance(positions[i], positions[j]) <= radius) {
          pair_sum += gain;
          ++kept;
        }
      }
    }
    out.kept_pairs = kept;
    out.culled_pairs = out.total_pairs - kept;
  } else {
    const double cell = std::max(std::min(radius, diagonal), 1.0);
    const channel::SpatialIndex index(positions, cell);
    channel::CullStats stats;
    const auto kept = channel::cull_pairs(index, radius, &stats);
    out.total_pairs = stats.total_pairs;
    out.kept_pairs = stats.kept_pairs;
    out.culled_pairs = stats.culled_pairs;
    for (const auto& [i, j] : kept)
      pair_sum += channel::coherent_gain(
          *cache.taps(positions[i], positions[j], carrier), carrier);
  }
  out.mean_pair_gain = out.kept_pairs > 0
                           ? pair_sum / static_cast<double>(out.kept_pairs)
                           : 0.0;
  metrics_->counter("channel.spatial.culled_pairs").add(out.culled_pairs);
  metrics_->counter("channel.spatial.kept_pairs").add(out.kept_pairs);

  // Zone partition: horizontal grid of zone_extent_m cells, ids in sorted
  // cell order (deterministic).  Interference adjacency: two zones interfere
  // when the gap between their bounding boxes is within the cull radius --
  // then and only then can a node of one couple into the other's inventory.
  std::map<std::array<std::int64_t, 2>, std::vector<std::uint32_t>> grid;
  for (std::size_t j = 0; j < n; ++j) {
    const std::array<std::int64_t, 2> key{
        static_cast<std::int64_t>(std::floor(positions[j].x / config.zone_extent_m)),
        static_cast<std::int64_t>(std::floor(positions[j].y / config.zone_extent_m))};
    grid[key].push_back(static_cast<std::uint32_t>(j));
  }
  mac::ZoneLayout layout;
  std::vector<std::array<std::int64_t, 2>> zone_coords;
  layout.members.reserve(grid.size());
  zone_coords.reserve(grid.size());
  for (auto& [coord, members] : grid) {
    zone_coords.push_back(coord);
    layout.members.push_back(std::move(members));
  }
  layout.adjacency.resize(layout.members.size());
  for (std::size_t a = 0; a < zone_coords.size(); ++a) {
    for (std::size_t b = a + 1; b < zone_coords.size(); ++b) {
      const auto gap = [&](std::int64_t da) {
        const double cells_apart =
            static_cast<double>(std::max<std::int64_t>(std::llabs(da) - 1, 0));
        return cells_apart * config.zone_extent_m;
      };
      const double gx = gap(zone_coords[a][0] - zone_coords[b][0]);
      const double gy = gap(zone_coords[a][1] - zone_coords[b][1]);
      if (std::sqrt(gx * gx + gy * gy) <= radius) {
        layout.adjacency[a].push_back(static_cast<std::uint32_t>(b));
        layout.adjacency[b].push_back(static_cast<std::uint32_t>(a));
      }
    }
  }

  const mac::ZoneSchedule schedule = mac::plan_zones(layout);
  out.zones = layout.members.size();
  out.zone_colors = schedule.colors;
  out.zone_rounds = schedule.rounds;
  out.channels = schedule.plan.channels();

  // The zoned inventory round on a trial-local master timeline.  All
  // randomness is the inventory's frame nonces, which derive from the
  // trial's substream seed (and, inside, each zone's id): bit-identical at
  // any thread count.
  tl.set_logging(config.keep_log);
  mac::InventoryConfig inventory;
  inventory.seed = substream_seed(scenario_.medium.seed, trial);
  mac::ZonedInventoryOptions slots;
  slots.frame_announce_s = config.frame_announce_s;
  slots.slot_s = config.slot_s;
  // Cross-zone SINR coupling: mac stays below channel, so the geometry is
  // folded into plain per-node data here -- each node's reader-path
  // backscatter amplitude (projector -> node gain times node -> hydrophone
  // gain, both at the node's zone carrier, through the same per-trial tap
  // cache as the census above).  The model (and its extra tap evaluations)
  // is gated off by default, leaving the silent-zone schedule bit-identical.
  std::vector<double> node_amplitude;
  if (config.interference) {
    std::vector<std::uint32_t> zone_of(n, 0);
    for (std::size_t z = 0; z < layout.members.size(); ++z)
      for (const std::uint32_t g : layout.members[z])
        zone_of[g] = static_cast<std::uint32_t>(z);
    node_amplitude.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double f = schedule.zones[zone_of[j]].carrier_hz;
      const double down = channel::coherent_gain(
          *cache.taps(scenario_.reader.projector, positions[j], f), f);
      const double up = channel::coherent_gain(
          *cache.taps(positions[j], scenario_.reader.hydrophone, f), f);
      node_amplitude[j] = down * up;
    }
    slots.interference.enabled = true;
    slots.interference.noise_power = config.noise_power;
    slots.interference.capture_threshold_db = config.capture_threshold_db;
    slots.interference.mask.passband_hz = config.rejection_passband_hz;
    slots.interference.mask.slope_db_per_khz = config.rejection_slope_db_per_khz;
    slots.interference.mask.floor_db = config.rejection_floor_db;
    slots.interference.node_amplitude = node_amplitude;
  }
  const mac::ZonedInventoryResult round =
      mac::run_zoned_inventory(layout, schedule, inventory, tl, slots);
  out.identified = round.identified;
  out.inventory = round.inventory;
  out.interference_corrupted_slots = round.corrupted_slots;
  out.mean_slot_sinr_db = round.mean_slot_sinr_db;
  if (slots.interference.enabled) {
    // Model-level link quality: the mean slot SINR read through the same
    // EVM/MER/CN0 mapping the waveform receiver uses, in the scheme's
    // occupied bandwidth at the scenario bitrate.
    const phy::SchemeDescriptor& sd = phy::scheme_descriptor(scenario_.waveform.scheme);
    out.slot_quality = phy::link_quality_from_snr(
        out.mean_slot_sinr_db, sd.occupied_bandwidth_hz(scenario_.waveform.bitrate));
  }
  // Captured after the zoned round so the interference model's extra
  // reader-path evaluations show up in the trial's tap economics (the census
  // evaluates nothing after this point on the off path, so off-mode numbers
  // are unchanged).
  out.tap_evaluations = cache.evaluations();
  out.tap_lookups = cache.lookups();
  out.simulated_s = tl.now();
  out.node_hours =
      static_cast<double>(n) * out.simulated_s / 3600.0;
  out.events_processed = tl.events_processed();
  if (config.keep_log) out.event_log = tl.log();
  return true;
}

}  // namespace pab::sim
