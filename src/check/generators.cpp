#include "check/generators.hpp"

#include <algorithm>
#include <cmath>

#include "phy/scheme.hpp"
#include "util/units.hpp"

namespace pab::check {

channel::MovingPathConfig gen_moving_path(Rng& rng) {
  channel::MovingPathConfig cfg;
  cfg.source = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 0.0)};
  cfg.rx_start = {cfg.source.x + rng.uniform(0.5, 20.0),
                  cfg.source.y + rng.uniform(-5.0, 5.0),
                  cfg.source.z + rng.uniform(-1.0, 1.0)};
  // Swimmer to small-ROV speeds, any direction.
  cfg.rx_velocity = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                     rng.uniform(-0.5, 0.5)};
  cfg.water.temperature_c = rng.uniform(4.0, 28.0);
  cfg.water.salinity_ppt = rng.bernoulli(0.5) ? 0.0 : rng.uniform(5.0, 35.0);
  return cfg;
}

channel::WavySurfaceConfig gen_wavy_surface(Rng& rng) {
  channel::WavySurfaceConfig cfg;
  cfg.surface_z = rng.uniform(0.8, 3.0);
  // Endpoints strictly below the lowest instantaneous surface excursion.
  cfg.wave_amplitude = rng.uniform(0.0, 0.15);
  const double ceiling = cfg.surface_z - cfg.wave_amplitude - 0.1;
  cfg.source = {0.0, 0.0, rng.uniform(0.0, ceiling)};
  cfg.receiver = {rng.uniform(1.0, 10.0), rng.uniform(-2.0, 2.0),
                  rng.uniform(0.0, ceiling)};
  cfg.wave_freq_hz = rng.uniform(0.1, 2.0);
  cfg.surface_reflection = -rng.uniform(0.7, 1.0);
  cfg.water.temperature_c = rng.uniform(4.0, 28.0);
  return cfg;
}

dsp::BasebandSignal gen_baseband_burst(Rng& rng, double sample_rate,
                                       double carrier_hz) {
  dsp::BasebandSignal s;
  s.sample_rate = sample_rate;
  s.carrier_hz = carrier_hz;
  const auto n = static_cast<std::size_t>(rng.uniform_int(64, 512));
  const double amp = rng.uniform(0.1, 2.0);
  const double phase = rng.uniform(0.0, kTwoPi);
  const double noise = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.1 * amp) : 0.0;
  s.samples.resize(n);
  for (auto& v : s.samples) {
    v = amp * dsp::cplx(std::cos(phase), std::sin(phase));
    if (noise > 0.0) v += dsp::cplx(rng.gaussian(0.0, noise), rng.gaussian(0.0, noise));
  }
  return s;
}

mac::RateControlConfig gen_rate_config(Rng& rng) {
  mac::RateControlConfig cfg;  // the paper's FM0 clock-divider ladder
  cfg.down_margin_db = rng.uniform(1.0, 4.0);
  cfg.up_margin_db = cfg.down_margin_db + rng.uniform(2.0, 8.0);
  cfg.up_streak = static_cast<int>(rng.uniform_int(1, 4));
  cfg.down_streak = static_cast<int>(rng.uniform_int(1, 3));
  // Both polarities: the no-forced-downshift mode is where streak bugs hide.
  cfg.downshift_on_crc_failure = rng.bernoulli(0.5);
  return cfg;
}

std::vector<RateObservation> gen_rate_observations(
    Rng& rng, const mac::RateControlConfig& config, std::size_t n) {
  std::vector<RateObservation> obs;
  obs.reserve(n);
  // Margins sit over the most robust rung's scheme floor.
  const double floor_db =
      phy::scheme_descriptor(config.ladder.front().scheme).decode_floor_db;
  const double hi = floor_db + config.up_margin_db;
  const double lo = floor_db + config.down_margin_db;
  while (obs.size() < n) {
    // A cluster: good streak (with CRC failures sprinkled in), a fade, or
    // mid-band dithering around the hysteresis window.
    const auto kind = rng.uniform_int(0, 2);
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < len && obs.size() < n; ++i) {
      RateObservation o;
      if (kind == 0) {
        o.snr_db = hi + rng.uniform(0.5, 12.0);
        o.crc_ok = !rng.bernoulli(0.3);
      } else if (kind == 1) {
        o.snr_db = lo - rng.uniform(0.5, 8.0);
        o.crc_ok = !rng.bernoulli(0.6);
      } else {
        o.snr_db = rng.uniform(lo, hi);
        o.crc_ok = !rng.bernoulli(0.2);
      }
      obs.push_back(o);
    }
  }
  return obs;
}

std::vector<LinkOutcome> gen_link_script(Rng& rng, std::size_t n) {
  std::vector<LinkOutcome> script(n);
  for (auto& o : script) {
    const double u = rng.uniform();
    o = u < 0.5 ? LinkOutcome::kDecoded
        : u < 0.8 ? LinkOutcome::kCrcFailure
                  : LinkOutcome::kSilent;
  }
  return script;
}

mac::SchedulerConfig gen_scheduler_config(Rng& rng) {
  mac::SchedulerConfig cfg;
  cfg.max_retries = static_cast<int>(rng.uniform_int(0, 4));
  cfg.downlink_time_s = rng.uniform(0.05, 0.5);
  cfg.turnaround_s = rng.uniform(0.0, 0.05);
  // Backoff is a real airtime phase since the Timeline refactor; half the
  // trials exercise it.  query_timeout_s stays infinite here so the pure
  // retry-protocol model in check_scheduler_airtime remains exact.
  cfg.retry_backoff_s = rng.bernoulli(0.5) ? rng.uniform(0.01, 0.2) : 0.0;
  return cfg;
}

std::vector<std::uint8_t> gen_population(Rng& rng) {
  // Random subset of ids 1..255 (0 kept free, 255 is the broadcast address
  // but a valid inventory id as far as slotting is concerned).
  std::vector<std::uint8_t> ids(255);
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<std::uint8_t>(i + 1);
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  ids.resize(static_cast<std::size_t>(rng.uniform_int(1, 120)));
  return ids;
}

mac::InventoryConfig gen_inventory_config(Rng& rng) {
  mac::InventoryConfig cfg;
  cfg.min_q = static_cast<int>(rng.uniform_int(0, 2));
  cfg.max_q = static_cast<int>(rng.uniform_int(cfg.min_q, 8));
  cfg.initial_q = static_cast<int>(rng.uniform_int(cfg.min_q, cfg.max_q));
  cfg.max_frames = static_cast<int>(rng.uniform_int(1, 64));
  cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  return cfg;
}

ZonedScenario gen_zoned_scenario(Rng& rng) {
  ZonedScenario s;
  const std::size_t zones = static_cast<std::size_t>(rng.uniform_int(2, 6));
  s.layout.members.resize(zones);
  std::uint32_t next = 0;
  for (auto& members : s.layout.members) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 20));
    for (std::size_t k = 0; k < count; ++k) members.push_back(next++);
  }
  s.layout.adjacency.resize(zones);
  for (std::uint32_t a = 0; a < zones; ++a) {
    for (std::uint32_t b = a + 1; b < zones; ++b) {
      if (!rng.bernoulli(0.25)) continue;
      s.layout.adjacency[a].push_back(b);
      s.layout.adjacency[b].push_back(a);
    }
  }
  // Reader-path amplitudes spanning three decades: singleton powers land
  // anywhere in 1e-8..1e-2, so whether a slot survives depends on which
  // concurrent windows overlap it, not on a global margin.
  s.amplitude.resize(next);
  for (auto& a : s.amplitude) a = std::pow(10.0, rng.uniform(-4.0, -1.0));
  s.inventory = gen_inventory_config(rng);
  s.frame_announce_s = rng.uniform(0.01, 0.08);
  s.slot_s = rng.uniform(0.005, 0.03);
  s.noise_power = std::pow(10.0, rng.uniform(-12.0, -6.0));
  s.capture_threshold_db = rng.uniform(0.0, 12.0);
  s.mask.passband_hz = rng.uniform(500.0, 2000.0);
  s.mask.slope_db_per_khz = rng.uniform(10.0, 50.0);
  s.mask.floor_db = rng.uniform(20.0, 60.0);
  return s;
}

mac::SchedulerConfig gen_timed_scheduler_config(Rng& rng) {
  mac::SchedulerConfig cfg = gen_scheduler_config(rng);
  // A third of the trials can give up mid-query: the budget is sized so some
  // queries hit it after one or two attempts and others never do.
  if (rng.bernoulli(0.33))
    cfg.query_timeout_s = rng.uniform(
        cfg.downlink_time_s, 4.0 * (cfg.downlink_time_s + cfg.turnaround_s));
  return cfg;
}

std::vector<TimelineOp> gen_timeline_ops(Rng& rng, std::size_t n) {
  // Track a model of the clock and the pending fire times while generating,
  // so every op is valid at its execution point (schedule_at never lands in
  // the past) and ties are produced deliberately.
  std::vector<TimelineOp> ops;
  ops.reserve(n);
  double now = 0.0;
  std::vector<double> pending;
  constexpr sim::TimelineLabel kLabels[] = {"a.x", "a.y", "b.z",
                                            "mac.downlink", "energy.harvested"};
  const auto label = [&] { return kLabels[rng.uniform_int(0, 4)]; };
  const auto fire_until = [&](double t) {
    std::erase_if(pending, [&](double ft) { return ft <= t; });
    now = t;
  };
  for (std::size_t i = 0; i < n; ++i) {
    TimelineOp op;
    const double u = rng.uniform();
    if (u < 0.35) {
      op.kind = TimelineOp::Kind::kScheduleAt;
      // 30%: reuse an existing pending time or now itself, to force
      // (time, sequence) tie-breaks.
      if (!pending.empty() && rng.bernoulli(0.3))
        op.time = pending[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1))];
      else
        op.time = rng.bernoulli(0.15) ? now : now + rng.uniform(0.0, 2.0);
      op.label = label();
      op.value = rng.uniform(0.0, 1.0);
      pending.push_back(op.time);
    } else if (u < 0.55) {
      op.kind = TimelineOp::Kind::kElapse;
      op.time = rng.uniform(0.0, 1.0);  // dt
      op.label = label();
      op.value = op.time;
      fire_until(now + op.time);
    } else if (u < 0.8) {
      op.kind = TimelineOp::Kind::kCharge;
      op.label = label();
      op.value = rng.uniform(0.0, 1.0);
    } else if (u < 0.95) {
      op.kind = TimelineOp::Kind::kRunUntil;
      op.time = now + rng.uniform(0.0, 2.0);
      fire_until(op.time);
    } else {
      op.kind = TimelineOp::Kind::kRunAll;
      if (!pending.empty())
        now = *std::max_element(pending.begin(), pending.end());
      pending.clear();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<std::pair<energy::Category, double>> gen_ledger_entries(
    Rng& rng, std::size_t n) {
  std::vector<std::pair<energy::Category, double>> entries;
  entries.reserve(n);
  constexpr auto kCount = static_cast<std::int64_t>(energy::Category::kCount);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<energy::Category>(rng.uniform_int(0, kCount - 1));
    // uJ .. J, log-uniform, plus occasional exact zeros.
    const double joules =
        rng.bernoulli(0.1) ? 0.0 : std::pow(10.0, rng.uniform(-6.0, 0.0));
    entries.emplace_back(c, joules);
  }
  return entries;
}

energy::TransactionCost gen_transaction_cost(Rng& rng) {
  energy::TransactionCost cost;
  cost.downlink_bits = static_cast<std::size_t>(rng.uniform_int(8, 128));
  cost.downlink_unit_s = rng.uniform(1e-3, 20e-3);
  cost.uplink_bits = static_cast<std::size_t>(rng.uniform_int(16, 512));
  cost.uplink_bitrate = rng.uniform(100.0, 5000.0);
  cost.sensing_energy_j = rng.uniform(0.0, 200e-6);
  return cost;
}

sim::Scenario gen_scenario(Rng& rng) {
  sim::Scenario s = sim::Scenario::pool_a();
  s.medium.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  const auto& size = s.medium.tank.size;
  const auto place = [&](double margin) {
    return channel::Vec3{rng.uniform(margin, size.x - margin),
                         rng.uniform(margin, size.y - margin),
                         rng.uniform(margin, size.z - margin)};
  };
  s.reader.projector = place(0.2);
  s.reader.hydrophone = place(0.2);
  s.field.set_position(0, place(0.2));
  s.waveform = gen_waveform(rng);
  if (rng.bernoulli(0.3))
    s.field.push_back(place(0.2), sim::FrontEndSpec{18000.0, 19500.0, 0.0});
  return s;
}

sim::FieldSpec gen_field_spec(Rng& rng) {
  sim::FieldSpec f;
  const std::int64_t layout = rng.uniform_int(1, 3);
  f.layout = static_cast<sim::FieldLayout>(layout);
  f.population = static_cast<std::uint64_t>(rng.uniform_int(8, 96));
  f.area_per_node_m2 = rng.uniform(40.0, 400.0);
  f.depth_m = rng.uniform(10.0, 60.0);
  f.clusters = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
  f.cluster_spread_m = rng.uniform(2.0, 20.0);
  f.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  return f;
}

sim::Waveform gen_waveform(Rng& rng) {
  sim::Waveform w;
  w.carrier_hz = rng.uniform(12000.0, 20000.0);
  w.bitrate = static_cast<double>(rng.uniform_int(2, 30)) * 100.0;
  w.node_start_s = rng.uniform(0.01, 0.1);
  w.tail_s = rng.uniform(0.005, 0.05);
  w.payload_bits = static_cast<std::size_t>(rng.uniform_int(16, 96));
  return w;
}

}  // namespace pab::check
