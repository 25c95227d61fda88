#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>

#include "campaign/batch_executor.hpp"
#include "campaign/executor.hpp"
#include "channel/spatial.hpp"
#include "channel/tapcache.hpp"
#include "mac/zones.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/batch.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"
#include "sim/timeline.hpp"
#include "util/pool.hpp"

namespace perfbench {

using namespace pab;
using Clock = std::chrono::steady_clock;

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host seconds of each of `n` calls run_trial(0 .. n-1), one at a time.
template <typename RunTrial>
std::vector<double> time_serially(std::size_t n, RunTrial&& run_trial) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    run_trial(i);
    out.push_back(seconds_since(t0));
  }
  return out;
}

// ---- uplink ------------------------------------------------------------------

// The discrete outputs of one uplink trial, plus its SNR estimate.
struct UplinkOutcome {
  ErrorCode code = ErrorCode::kOk;
  std::size_t start_sample = 0;
  Bits bits;
  double snr_db = 0.0;
};

BatchResult fold_uplink(const std::vector<UplinkOutcome>& outs) {
  BatchResult r;
  Fnv1a h;
  double snr_sum = 0.0;
  std::size_t decoded = 0;
  for (const UplinkOutcome& o : outs) {
    h.pod(static_cast<std::uint8_t>(o.code));
    if (o.code == ErrorCode::kOk) {
      h.pod(static_cast<std::uint64_t>(o.start_sample));
      h.pod(static_cast<std::uint64_t>(o.bits.size()));
      h.bytes(o.bits.data(), o.bits.size());
      snr_sum += o.snr_db;
      ++decoded;
    } else if (o.code != ErrorCode::kNoPreamble &&
               o.code != ErrorCode::kDecodeFailure) {
      ++r.failed;
    }
  }
  r.digest = h.value();
  r.trials = outs.size();
  r.continuous = decoded > 0 ? snr_sum / static_cast<double>(decoded) : 0.0;
  if (2 * decoded < outs.size())
    r.sanity_error = "fewer than half of the uplink trials decoded";
  return r;
}

// fig8's close placement: the node within a meter of projector and hydrophone.
core::Placement close_placement() {
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  return pl;
}

sim::Scenario uplink_scenario(double bitrate, std::uint64_t seed, bool tiny) {
  sim::Scenario sc =
      sim::Scenario::pool_a().with_seed(seed).with_placement(close_placement());
  sc.medium.noise.psd_db_re_upa = 82.0;  // fig8's facility ambient
  sc.waveform.bitrate = bitrate;
  sc.waveform.payload_bits = tiny ? 16 : 96;
  return sc;
}

class UplinkWorkload final : public Workload {
 public:
  UplinkWorkload(double bitrate, std::size_t batch, std::uint64_t seed,
                 unsigned threads, bool tiny)
      : session_(uplink_scenario(bitrate, seed, tiny), &registry_),
        runner_(threads, &registry_),
        batch_(batch) {
    const sim::Waveform& w = session_.scenario().waveform;
    // The receiver configuration LinkSimulator::run_and_decode_into builds.
    demod_config_.scheme = w.scheme;
    demod_config_.demod.carrier_hz = w.carrier_hz;
    demod_config_.demod.bitrate = w.bitrate;
    demod_config_.demod.sample_rate = session_.link().config().sample_rate;
    demod_config_.demod.metrics = &registry_;
    // Warm-up: one trial per worker fills the modulation and tap caches, the
    // pooled trial contexts and their arenas.
    (void)runner_.map(std::min<std::size_t>(threads, batch_), [&](std::size_t i) {
      return session_.run_trial<sim::TrialKind::kUplink>(i);
    });
  }

  const char* continuous_name() const override { return "mean_snr_db"; }
  const char* coverage_span() const override { return "trial"; }

  BatchResult run() override {
    std::vector<double> times(batch_);
    const auto trials = runner_.map(batch_, [&](std::size_t i) {
      const auto t0 = Clock::now();
      auto r = session_.run_trial<sim::TrialKind::kUplink>(i);
      times[i] = seconds_since(t0);
      return r;
    });
    std::vector<UplinkOutcome> outs(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      outs[i].code = trials[i].code();
      if (!trials[i].ok()) continue;
      const phy::DemodResult& d = trials[i].value().demod;
      outs[i].start_sample = d.start_sample;
      outs[i].bits = d.bits;
      outs[i].snr_db = d.snr_db;
    }
    BatchResult r = fold_uplink(outs);
    r.trial_s = std::move(times);
    return r;
  }

  BatchResult replay(Tracer& tracer) override {
    std::vector<UplinkOutcome> outs;
    {
      const Span map(tracer, "sim.batch.map");
      outs = runner_.map(batch_, [&](std::size_t i) {
        return replay_trial(tracer, i, map.id());
      });
    }
    return fold_uplink(outs);
  }

  std::vector<double> serial_trial_s(std::size_t n) override {
    return time_serially(std::min(n, batch_), [&](std::size_t i) {
      (void)session_.run_trial<sim::TrialKind::kUplink>(i);
    });
  }

 private:
  struct Context {
    phy::Workspace workspace;
    core::UplinkRunResult run;
    phy::DemodResult demod;
    Bits sent;
  };

  // Session::run_into, one public call per span: bits -> modulation ->
  // synthesis -> receiver -> BER.
  UplinkOutcome replay_trial(Tracer& tracer, std::size_t trial,
                             std::int64_t parent) {
    const Span root(tracer, "trial", trial, parent);
    const sim::Waveform& w = session_.scenario().waveform;
    const auto ctx = contexts_.lease();
    pab::Rng rng = session_.trial_rng(trial);
    {
      const Span s(tracer, "sim.trial.bits");
      ctx->sent.resize(w.payload_bits);
      rng.bits_into(ctx->sent);
    }
    const core::ModulationStates* states = nullptr;
    {
      const Span s(tracer, "sim.session.modulation");
      states = &session_.modulation(
          0, w.carrier_hz,
          phy::scheme_descriptor(w.scheme).effective_bitrate(w.bitrate));
    }
    {
      const Span s(tracer, "core.link.synth");
      session_.link().run_uplink_into(session_.projector(), *states, ctx->sent,
                                      w, rng, ctx->workspace, ctx->run);
    }
    const pab::Expected<bool> ok = [&] {
      const Span s(tracer, "phy.demod");
      return ctx->workspace.scheme_demodulator(demod_config_)
          .demodulate_into(ctx->run.hydrophone_v.samples,
                           ctx->run.hydrophone_v.sample_rate, ctx->sent.size(),
                           ctx->workspace.arena(), ctx->demod);
    }();
    UplinkOutcome o;
    o.code = ok.code();
    if (ok.ok()) {
      const Span s(tracer, "phy.ber");
      (void)phy::bit_error_rate(ctx->sent, ctx->demod.bits);
      o.start_sample = ctx->demod.start_sample;
      o.bits = ctx->demod.bits;
      o.snr_db = ctx->demod.snr_db;
    }
    return o;
  }

  const sim::Session session_;
  const sim::BatchRunner runner_;
  const std::size_t batch_;
  phy::SchemeConfig demod_config_;
  util::Pool<Context> contexts_;
};

// ---- field -------------------------------------------------------------------

struct FieldOutcome {
  ErrorCode code = ErrorCode::kOk;
  std::vector<std::uint32_t> identified;
  std::uint64_t kept_pairs = 0;
  std::uint64_t tap_evaluations = 0;
  std::uint64_t corrupted_slots = 0;
  std::uint64_t events = 0;
  std::uint64_t inventory_slots = 0;
  double mean_pair_gain = 0.0;
  double mean_slot_sinr_db = 0.0;
};

BatchResult fold_field(const std::vector<FieldOutcome>& outs,
                       std::size_t population) {
  BatchResult r;
  Fnv1a h;
  double sinr_sum = 0.0;
  std::size_t ok = 0;
  for (const FieldOutcome& o : outs) {
    h.pod(static_cast<std::uint8_t>(o.code));
    if (o.code != ErrorCode::kOk) {
      ++r.failed;
      continue;
    }
    ++ok;
    h.pod(static_cast<std::uint64_t>(o.identified.size()));
    h.bytes(o.identified.data(), o.identified.size() * sizeof(std::uint32_t));
    h.pod(o.kept_pairs);
    h.pod(o.tap_evaluations);
    h.pod(o.corrupted_slots);
    h.pod(o.events);
    sinr_sum += o.mean_slot_sinr_db;
    r.counts.kept_pairs += o.kept_pairs;
    r.counts.tap_evaluations += o.tap_evaluations;
    r.counts.corrupted_slots += o.corrupted_slots;
    r.counts.timeline_events += o.events;
    r.counts.inventory_slots += o.inventory_slots;
    std::vector<std::uint32_t> seen = o.identified;
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end() ||
        (!seen.empty() && seen.back() >= population))
      r.sanity_error = "field inventory identified a node twice or out of range";
    if (!(o.mean_pair_gain > 0.0) || !std::isfinite(o.mean_pair_gain))
      r.sanity_error = "field census produced a non-positive mean pair gain";
  }
  r.digest = h.value();
  r.trials = outs.size();
  r.continuous = ok > 0 ? sinr_sum / static_cast<double>(ok) : 0.0;
  return r;
}

sim::Scenario field_scenario(std::uint64_t seed, bool tiny) {
  sim::FieldSpec spec;
  spec.layout = sim::FieldLayout::kRandom;
  spec.population = tiny ? 200 : 2000;
  spec.seed = 21;  // the layout is fixed; the trial seed drives the MAC
  return sim::Scenario::open_water(spec).with_seed(seed);
}

class FieldWorkload final : public Workload {
 public:
  FieldWorkload(std::size_t batch, std::uint64_t seed, unsigned threads, bool tiny)
      : session_(field_scenario(seed, tiny), &registry_),
        runner_(threads, &registry_),
        batch_(batch) {
    opts_.field.interference = true;
    opts_.field.keep_log = false;
    (void)runner_.map(std::min<std::size_t>(threads, batch_), [&](std::size_t i) {
      return session_.run_trial<sim::TrialKind::kField>(i, opts_);
    });
  }

  const char* continuous_name() const override { return "mean_slot_sinr_db"; }
  const char* coverage_span() const override { return "trial"; }

  BatchResult run() override {
    std::vector<double> times(batch_);
    const auto trials = runner_.map(batch_, [&](std::size_t i) {
      const auto t0 = Clock::now();
      auto r = session_.run_trial<sim::TrialKind::kField>(i, opts_);
      times[i] = seconds_since(t0);
      return r;
    });
    std::vector<FieldOutcome> outs(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      outs[i].code = trials[i].code();
      if (!trials[i].ok()) continue;
      const sim::FieldRunResult& f = trials[i].value();
      outs[i].identified = f.identified;
      outs[i].kept_pairs = f.kept_pairs;
      outs[i].tap_evaluations = f.tap_evaluations;
      outs[i].corrupted_slots = f.interference_corrupted_slots;
      outs[i].events = f.events_processed;
      outs[i].inventory_slots = f.inventory.slots;
      outs[i].mean_pair_gain = f.mean_pair_gain;
      outs[i].mean_slot_sinr_db = f.mean_slot_sinr_db;
    }
    BatchResult r = fold_field(outs, session_.node_count());
    r.trial_s = std::move(times);
    return r;
  }

  BatchResult replay(Tracer& tracer) override {
    std::vector<FieldOutcome> outs;
    {
      const Span map(tracer, "sim.batch.map");
      outs = runner_.map(batch_, [&](std::size_t i) {
        return replay_trial(tracer, i, map.id());
      });
    }
    return fold_field(outs, session_.node_count());
  }

  std::vector<double> serial_trial_s(std::size_t n) override {
    return time_serially(std::min(n, batch_), [&](std::size_t i) {
      (void)session_.run_trial<sim::TrialKind::kField>(i, opts_);
    });
  }

 private:
  // Session::field_trial on its culled path, one layer per span: cull
  // radius -> spatial cull -> tap census -> zone layout -> plan_zones ->
  // reader-path amplitudes -> run_zoned_inventory.
  FieldOutcome replay_trial(Tracer& tracer, std::size_t trial,
                            std::int64_t parent) {
    const Span root(tracer, "trial", trial, parent);
    const sim::Scenario& sc = session_.scenario();
    const sim::FieldRoundConfig& config = opts_.field;
    const std::size_t n = sc.node_count();
    const double carrier = sc.waveform.carrier_hz;
    const auto& positions = sc.field.positions();
    const channel::Vec3& extent = sc.medium.tank.size;
    const double diagonal =
        std::sqrt(extent.x * extent.x + extent.y * extent.y + extent.z * extent.z);

    std::optional<channel::TapCache> cache;
    {
      const Span s(tracer, "channel.tapcache.census");
      cache.emplace(sc.medium.tank, sc.medium.max_image_order,
                    sc.medium.use_image_method, &registry_,
                    channel::TapQuantization{config.quant_cell_m});
      double reader_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        reader_sum += channel::coherent_gain(
            *cache->taps(sc.reader.projector, positions[j], carrier), carrier);
      (void)reader_sum;
    }
    double radius = 0.0;
    {
      const Span s(tracer, "channel.cull_radius");
      radius = std::min(channel::cull_radius_m(config.gain_floor, carrier, diagonal),
                        diagonal);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> kept;
    {
      const Span s(tracer, "channel.spatial.cull");
      const double cell = std::max(std::min(radius, diagonal), 1.0);
      const channel::SpatialIndex index(positions, cell);
      kept = channel::cull_pairs(index, radius);
    }
    FieldOutcome o;
    o.kept_pairs = kept.size();
    {
      const Span s(tracer, "channel.tapcache.census");
      double pair_sum = 0.0;
      for (const auto& [i, j] : kept)
        pair_sum += channel::coherent_gain(
            *cache->taps(positions[i], positions[j], carrier), carrier);
      o.mean_pair_gain =
          kept.empty() ? 0.0 : pair_sum / static_cast<double>(kept.size());
    }

    mac::ZoneLayout layout;
    {
      const Span s(tracer, "mac.zones.layout");
      std::map<std::array<std::int64_t, 2>, std::vector<std::uint32_t>> grid;
      for (std::size_t j = 0; j < n; ++j) {
        const std::array<std::int64_t, 2> key{
            static_cast<std::int64_t>(std::floor(positions[j].x / config.zone_extent_m)),
            static_cast<std::int64_t>(std::floor(positions[j].y / config.zone_extent_m))};
        grid[key].push_back(static_cast<std::uint32_t>(j));
      }
      std::vector<std::array<std::int64_t, 2>> coords;
      for (auto& [coord, members] : grid) {
        coords.push_back(coord);
        layout.members.push_back(std::move(members));
      }
      layout.adjacency.resize(layout.members.size());
      const auto gap = [&](std::int64_t da) {
        return static_cast<double>(std::max<std::int64_t>(std::llabs(da) - 1, 0)) *
               config.zone_extent_m;
      };
      for (std::size_t a = 0; a < coords.size(); ++a) {
        for (std::size_t b = a + 1; b < coords.size(); ++b) {
          const double gx = gap(coords[a][0] - coords[b][0]);
          const double gy = gap(coords[a][1] - coords[b][1]);
          if (std::sqrt(gx * gx + gy * gy) <= radius) {
            layout.adjacency[a].push_back(static_cast<std::uint32_t>(b));
            layout.adjacency[b].push_back(static_cast<std::uint32_t>(a));
          }
        }
      }
    }
    mac::ZoneSchedule schedule;
    {
      const Span s(tracer, "mac.zones.plan");
      schedule = mac::plan_zones(layout);
    }

    mac::ZonedInventoryOptions slots;
    slots.frame_announce_s = config.frame_announce_s;
    slots.slot_s = config.slot_s;
    std::vector<double> node_amplitude(n);
    {
      const Span s(tracer, "channel.tapcache.reader_paths");
      std::vector<std::uint32_t> zone_of(n, 0);
      for (std::size_t z = 0; z < layout.members.size(); ++z)
        for (const std::uint32_t g : layout.members[z])
          zone_of[g] = static_cast<std::uint32_t>(z);
      for (std::size_t j = 0; j < n; ++j) {
        const double f = schedule.zones[zone_of[j]].carrier_hz;
        const double down = channel::coherent_gain(
            *cache->taps(sc.reader.projector, positions[j], f), f);
        const double up = channel::coherent_gain(
            *cache->taps(positions[j], sc.reader.hydrophone, f), f);
        node_amplitude[j] = down * up;
      }
    }
    slots.interference.enabled = true;
    slots.interference.noise_power = config.noise_power;
    slots.interference.capture_threshold_db = config.capture_threshold_db;
    slots.interference.mask.passband_hz = config.rejection_passband_hz;
    slots.interference.mask.slope_db_per_khz = config.rejection_slope_db_per_khz;
    slots.interference.mask.floor_db = config.rejection_floor_db;
    slots.interference.node_amplitude = node_amplitude;

    mac::InventoryConfig inventory;
    inventory.seed = sim::substream_seed(sc.medium.seed, trial);
    {
      const Span s(tracer, "mac.zones.inventory");
      sim::Timeline tl;
      tl.set_logging(config.keep_log);
      const mac::ZonedInventoryResult round =
          mac::run_zoned_inventory(layout, schedule, inventory, tl, slots);
      o.identified = round.identified;
      o.corrupted_slots = round.corrupted_slots;
      o.inventory_slots = round.inventory.slots;
      o.mean_slot_sinr_db = round.mean_slot_sinr_db;
      o.events = tl.events_processed();
    }
    o.tap_evaluations = cache->evaluations();
    return o;
  }

  const sim::Session session_;
  const sim::BatchRunner runner_;
  const std::size_t batch_;
  sim::TrialOptions opts_;
};

// ---- campaign ----------------------------------------------------------------

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, unsigned threads, bool tiny)
      : threads_(threads) {
    spec_.name = "perfbench_timeline";
    spec_.preset = "pool_a_concurrent";
    spec_.kind = sim::TrialKind::kTimeline;
    spec_.trials_per_point = tiny ? 32 : 512;
    spec_.base_seed = seed;
    const std::uint64_t points = tiny ? 2 : 8;
    campaign::SweepAxis axis{"seed", {}};
    for (std::uint64_t k = 0; k < points; ++k)
      axis.values.push_back(static_cast<double>(seed * points + k));
    spec_.axes.push_back(std::move(axis));
    options_.shard_size = 32;
    options_.worker_threads = threads;
    // Warm-up: one whole campaign run.
    (void)campaign::BatchExecutor().run(spec_, options_);
  }

  const char* continuous_name() const override { return "mean_harvested_j"; }
  const char* coverage_span() const override { return "campaign.run"; }

  BatchResult run() override {
    auto result = campaign::BatchExecutor().run(spec_, options_);
    if (!result.ok()) return failed_run(result.error().message());
    return fold(result.value());
  }

  BatchResult replay(Tracer& tracer) override {
    std::optional<pab::Expected<campaign::CampaignResult>> assembled;
    Counts counts;
    {
      const Span root(tracer, "campaign.run");
      std::vector<campaign::Shard> shards;
      {
        const Span s(tracer, "campaign.compile");
        const auto valid = spec_.validate();
        if (!valid.ok()) return failed_run(valid.error().message());
        shards = spec_.compile(options_.shard_size);
      }
      std::vector<campaign::ShardOutput> outputs;
      outputs.reserve(shards.size());
      for (const campaign::Shard& shard : shards) {
        const Span shard_span(tracer, "campaign.shard", shard.index);
        std::optional<pab::Expected<sim::Scenario>> scenario;
        std::optional<pab::Expected<sim::TrialOptions>> opts;
        {
          const Span s(tracer, "campaign.scenario");
          scenario.emplace(spec_.scenario_for_point(shard.point));
          opts.emplace(spec_.trial_options());
        }
        if (!scenario->ok()) return failed_run(scenario->error().message());
        if (!opts->ok()) return failed_run(opts->error().message());
        // What campaign::run_shard does, one public call per span.
        obs::MetricRegistry registry;
        std::optional<sim::Session> session;
        std::optional<sim::BatchRunner> runner;
        {
          const Span s(tracer, "sim.session.construct");
          session.emplace(std::move(*scenario).value(), &registry);
          runner.emplace(threads_, &registry);
        }
        const std::uint64_t n = shard.end - shard.begin;
        std::vector<pab::Expected<sim::TrialResult>> results;
        {
          const Span map(tracer, "sim.batch.map");
          results = runner->map(n, [&](std::size_t i) {
            const Span t(tracer, "trial", shard.begin + i, map.id());
            return session->run_trial(spec_.kind, shard.begin + i, opts->value());
          });
        }
        campaign::ShardOutput out;
        out.shard = shard.index;
        out.records = campaign::RecordBatch(spec_.kind);
        {
          const Span s(tracer, "campaign.records_append");
          for (std::uint64_t i = 0; i < n; ++i)
            out.records.append(shard.begin + i, results[i]);
        }
        {
          const Span s(tracer, "obs.snapshot");
          out.metrics = registry.snapshot();
        }
        for (const auto& r : results) {
          if (!r.ok()) continue;
          const auto& t = std::get<sim::TimelineRunResult>(r.value());
          counts.timeline_events += t.events_processed;
          counts.inventory_slots += t.inventory.slots;
        }
        outputs.push_back(std::move(out));
      }
      {
        const Span s(tracer, "campaign.assemble");
        assembled.emplace(campaign::assemble_result(spec_, std::move(outputs)));
      }
      if (!assembled->ok()) return failed_run(assembled->error().message());
      {
        const Span s(tracer, "campaign.serialize");
        (void)assembled->value().records_bytes();
      }
    }
    BatchResult r = fold(assembled->value());
    r.counts = counts;
    return r;
  }

  std::vector<double> serial_trial_s(std::size_t n) override {
    const sim::Session session(spec_.scenario_for_point(0).value(), &registry_);
    const sim::TrialOptions opts = spec_.trial_options().value();
    return time_serially(std::min<std::size_t>(n, spec_.trials_per_point),
                         [&](std::size_t i) {
                           (void)session.run_trial(spec_.kind, i, opts);
                         });
  }

 private:
  [[nodiscard]] std::uint64_t total_trials() const {
    return spec_.point_count() * spec_.trials_per_point;
  }

  BatchResult failed_run(const std::string& why) const {
    BatchResult r;
    r.trials = total_trials();
    r.failed = r.trials;
    r.sanity_error = "campaign failed: " + why;
    return r;
  }

  BatchResult fold(const campaign::CampaignResult& result) const {
    BatchResult r;
    const std::string bytes = result.records_bytes();
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    r.digest = h.value();
    r.trials = total_trials();
    std::uint64_t rows = 0;
    double harvested = 0.0;
    std::uint64_t ok = 0;
    const auto columns = campaign::RecordBatch::column_names(spec_.kind);
    const auto harvested_col = static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), "harvested_j") - columns.begin());
    for (const campaign::RecordBatch& batch : result.points) {
      rows += batch.rows();
      for (std::size_t i = 0; i < batch.rows(); ++i) {
        if (batch.ok()[i] == 0) {
          ++r.failed;
          continue;
        }
        harvested += batch.column(harvested_col)[i];
        ++ok;
      }
    }
    r.continuous = ok > 0 ? harvested / static_cast<double>(ok) : 0.0;
    if (rows != r.trials) r.sanity_error = "campaign returned the wrong row count";
    return r;
  }

  const unsigned threads_;
  campaign::CampaignSpec spec_;
  campaign::RunOptions options_;
};

}  // namespace

bool is_workload(const std::string& name) {
  return name == "uplink_100bps" || name == "uplink_5kbps" ||
         name == "field_2000" || name == "campaign_timeline";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned threads,
                                        bool tiny) {
  if (name == "uplink_100bps")
    return std::make_unique<UplinkWorkload>(100.0, 4, seed, threads, tiny);
  if (name == "uplink_5kbps")
    return std::make_unique<UplinkWorkload>(5000.0, tiny ? 8 : 128, seed, threads,
                                            tiny);
  if (name == "field_2000")
    return std::make_unique<FieldWorkload>(tiny ? 4 : 16, seed, threads, tiny);
  if (name == "campaign_timeline")
    return std::make_unique<CampaignWorkload>(seed, threads, tiny);
  return nullptr;
}

}  // namespace perfbench
