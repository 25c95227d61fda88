#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "campaign/batch_executor.hpp"
#include "channel/water.hpp"
#include "obs/metrics.hpp"
#include "phy/packet.hpp"
#include "phy/scheme.hpp"
#include "sim/scenario.hpp"
#include "util/units.hpp"

namespace pab::check {
namespace {

// All checkers funnel mismatches through this so every detail string names
// the property, the observed value, and the expectation.
template <typename A, typename B>
CheckResult mismatch(const char* property, const A& got, const B& want) {
  std::ostringstream os;
  os << property << ": got " << got << ", want " << want;
  return CheckResult::fail(os.str());
}

bool near(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

// --- default subjects --------------------------------------------------------

SampleFn real_sample_at() {
  return [](std::span<const dsp::cplx> x, double pos) {
    return channel::sample_at(x, pos);
  };
}

LinkQualityFn real_link_quality() {
  return [](std::span<const double> envelope, double sample_rate,
            std::size_t n_bits,
            const phy::DemodConfig& config) -> pab::Expected<phy::DemodResult> {
    const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, config});
    return demod.demodulate_envelope(envelope, sample_rate, n_bits);
  };
}

RateTraceFn real_rate_trace() {
  return [](const mac::RateControlConfig& cfg,
            std::span<const RateObservation> obs) {
    // The trace contract starts mid-table so both directions have room.
    mac::RateController rc(cfg, std::min<std::size_t>(2, cfg.ladder.size() - 1));
    std::vector<RateStep> trace;
    trace.reserve(obs.size());
    for (const auto& o : obs) {
      const bool changed = rc.observe(o.snr_db, o.crc_ok);
      trace.push_back({rc.rate_index(), changed});
    }
    return trace;
  };
}

SchedulerRunFn real_scheduler_run() {
  return [](const mac::SchedulerConfig& cfg, std::span<const LinkOutcome> script,
            std::size_t uplink_bits, double uplink_bitrate) {
    mac::PollScheduler sched(cfg);
    std::size_t cursor = 0;
    const auto link =
        [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
      // Attempts past the script's end stay silent (a transact sequence may
      // straddle the final scripted outcome).
      const LinkOutcome o =
          cursor < script.size() ? script[cursor++] : LinkOutcome::kSilent;
      switch (o) {
        case LinkOutcome::kDecoded: {
          phy::UplinkPacket p;
          p.node_id = 1;
          p.payload = {0xAB, 0xCD};
          return p;
        }
        case LinkOutcome::kCrcFailure:
          return pab::Error{pab::ErrorCode::kCrcMismatch, "scripted"};
        case LinkOutcome::kSilent:
          break;
      }
      return pab::Error{pab::ErrorCode::kNoPreamble, "scripted"};
    };
    while (cursor < script.size())
      (void)sched.transact(phy::DownlinkQuery{}, link, uplink_bits,
                           uplink_bitrate);
    return sched.stats();
  };
}

InventoryFn real_inventory() {
  return [](std::span<const std::uint8_t> population,
            const mac::InventoryConfig& cfg, mac::InventoryStats* stats) {
    return mac::run_inventory(population, cfg, stats);
  };
}

CullFn real_cull() {
  return [](const channel::SpatialIndex& index, double radius_m,
            channel::CullStats* stats) {
    return channel::cull_pairs(index, radius_m, stats);
  };
}

LedgerTotalFn real_ledger_total() {
  return [](std::span<const std::pair<energy::Category, double>> entries) {
    energy::EnergyLedger ledger;
    for (const auto& [c, joules] : entries) ledger.add(c, joules);
    return ledger.total_consumed();
  };
}

RechargeFn real_recharge() {
  return [](const energy::EnergyPlanner& planner, double harvest_w,
            const energy::TransactionCost& cost) {
    return planner.recharge_time_s(harvest_w, cost);
  };
}

TimelineRunFn real_timeline_run() {
  return [](std::span<const TimelineOp> ops) {
    sim::Timeline tl;
    for (const auto& op : ops) {
      switch (op.kind) {
        case TimelineOp::Kind::kScheduleAt:
          tl.schedule_at(op.time, op.label, nullptr, op.value);
          break;
        case TimelineOp::Kind::kElapse:
          tl.elapse(op.time, op.label);
          break;
        case TimelineOp::Kind::kCharge:
          tl.charge(op.label, op.value);
          break;
        case TimelineOp::Kind::kRunUntil:
          tl.run_until(op.time);
          break;
        case TimelineOp::Kind::kRunAll:
          tl.run();
          break;
      }
    }
    TimelineProbe probe;
    probe.log = tl.log();
    probe.now = tl.now();
    probe.events_processed = tl.events_processed();
    std::set<std::string> labels;
    for (const auto& e : probe.log) labels.insert(e.label);
    for (const auto& l : labels) probe.sums.emplace_back(l, tl.charged(l));
    return probe;
  };
}

TimedSchedulerRunFn real_timed_scheduler_run() {
  return [](const mac::SchedulerConfig& cfg, std::span<const LinkOutcome> script,
            std::span<const std::pair<energy::Category, double>> charges,
            std::size_t uplink_bits, double uplink_bitrate) {
    sim::Timeline tl;
    energy::EnergyLedger ledger;
    mac::PollScheduler sched(cfg, nullptr, &tl);
    std::size_t cursor = 0;
    const auto link =
        [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
      const LinkOutcome o =
          cursor < script.size() ? script[cursor++] : LinkOutcome::kSilent;
      switch (o) {
        case LinkOutcome::kDecoded: {
          phy::UplinkPacket p;
          p.node_id = 1;
          p.payload = {0xAB, 0xCD};
          return p;
        }
        case LinkOutcome::kCrcFailure:
          return pab::Error{pab::ErrorCode::kCrcMismatch, "scripted"};
        case LinkOutcome::kSilent:
          break;
      }
      return pab::Error{pab::ErrorCode::kNoPreamble, "scripted"};
    };
    // Interleave: one ledger charge (mirrored into the event log at the
    // current clock) after each transact, remainder at the end.
    std::size_t next_charge = 0;
    const auto book_one = [&] {
      if (next_charge >= charges.size()) return;
      const auto& [c, joules] = charges[next_charge++];
      ledger.add(c, joules);
      tl.charge("energy." + std::string(energy::to_string(c)), joules);
    };
    while (cursor < script.size()) {
      (void)sched.transact(phy::DownlinkQuery{}, link, uplink_bits,
                           uplink_bitrate);
      book_one();
    }
    while (next_charge < charges.size()) book_one();

    TimedRunProbe probe;
    probe.stats = sched.stats();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(energy::Category::kCount); ++i)
      probe.ledger_totals[i] = ledger.total(static_cast<energy::Category>(i));
    probe.log = tl.log();
    return probe;
  };
}

ZonedRunFn real_zoned_inventory() {
  return [](const ZonedScenario& s, const mac::ZoneInterferenceModel& model) {
    sim::Timeline tl;
    const mac::ZoneSchedule schedule = mac::plan_zones(s.layout, {});
    mac::ZonedInventoryOptions options;
    options.frame_announce_s = s.frame_announce_s;
    options.slot_s = s.slot_s;
    options.interference = model;
    ZonedRunProbe probe;
    probe.result =
        mac::run_zoned_inventory(s.layout, schedule, s.inventory, tl, options);
    probe.log = tl.log();
    probe.now = tl.now();
    return probe;
  };
}

// --- channel -----------------------------------------------------------------

CheckResult check_sample_interpolation(std::uint64_t seed,
                                       const SampleFn& subject) {
  Rng rng(seed);
  const auto record = gen_baseband_burst(rng, 48000.0, 15000.0);
  const auto& x = record.samples;
  const auto n = x.size();
  double max_mag = 0.0;
  for (const auto& v : x) max_mag = std::max(max_mag, std::abs(v));

  // Integer positions read back exactly -- the last one included (the
  // historical off-by-one truncated [size-1, size) to silence).
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = subject(x, static_cast<double>(i));
    if (std::abs(got - x[i]) > 1e-12 * (1.0 + std::abs(x[i])))
      return mismatch("sample_at(x, i) != x[i] at integer position", i, "exact");
  }
  // Outside the record: exact zeros.
  for (const double pos : {-1.0, -0.25, static_cast<double>(n),
                           static_cast<double>(n) + 0.5}) {
    if (subject(x, pos) != dsp::cplx{})
      return mismatch("sample_at outside [0, size) must be zero", pos, 0.0);
  }
  // Random fractional positions: linear interpolation against the next
  // sample (implicit zero-padding past the end) and convexity bound.
  for (int k = 0; k < 64; ++k) {
    const double pos = rng.uniform(0.0, static_cast<double>(n));
    const auto i = static_cast<std::size_t>(pos);
    if (i >= n) continue;
    const double frac = pos - static_cast<double>(i);
    const dsp::cplx next = i + 1 < n ? x[i + 1] : dsp::cplx{};
    const dsp::cplx want = x[i] * (1.0 - frac) + next * frac;
    const auto got = subject(x, pos);
    if (std::abs(got - want) > 1e-9 * (1.0 + std::abs(want)))
      return mismatch("sample_at fractional interpolation", pos, "lerp");
    if (std::abs(got) > max_mag * (1.0 + 1e-9))
      return mismatch("sample_at exceeds record magnitude", std::abs(got),
                      max_mag);
  }
  return CheckResult::pass();
}

CheckResult check_channel_causality(std::uint64_t seed) {
  Rng rng(seed);
  const double fs = 48000.0;

  {  // Moving receiver: zero before flight time, bounded by the path gain.
    const auto cfg = gen_moving_path(rng);
    const auto x = gen_baseband_burst(rng, fs, rng.uniform(12000.0, 20000.0));
    const auto y = channel::propagate_moving(x, cfg);
    const double c = channel::sound_speed_mackenzie(cfg.water);
    double max_mag = 0.0;
    for (const auto& v : x.samples) max_mag = std::max(max_mag, std::abs(v));
    for (std::size_t i = 0; i < y.samples.size(); ++i) {
      const double t = static_cast<double>(i) / fs;
      const channel::Vec3 rx{cfg.rx_start.x + cfg.rx_velocity.x * t,
                             cfg.rx_start.y + cfg.rx_velocity.y * t,
                             cfg.rx_start.z + cfg.rx_velocity.z * t};
      const double d = std::max(channel::distance(cfg.source, rx), 1e-3);
      if (t < d / c && y.samples[i] != dsp::cplx{})
        return mismatch("propagate_moving emits before the direct-path delay",
                        i, "exact zero");
      const double bound =
          channel::path_amplitude_gain(d, x.carrier_hz) * max_mag;
      if (std::abs(y.samples[i]) > bound * (1.0 + 1e-9))
        return mismatch("propagate_moving exceeds the path gain bound",
                        std::abs(y.samples[i]), bound);
    }
  }

  {  // Wavy surface: the image path is never shorter than the direct path,
     // so output before the direct flight time must be exactly zero, and the
     // two-path sum is bounded by the coherent worst case.
    const auto cfg = gen_wavy_surface(rng);
    const auto x = gen_baseband_burst(rng, fs, rng.uniform(12000.0, 20000.0));
    const auto y = channel::propagate_wavy(x, cfg);
    const double c = channel::sound_speed_mackenzie(cfg.water);
    const double d_direct =
        std::max(channel::distance(cfg.source, cfg.receiver), 1e-3);
    const double g_direct = channel::path_amplitude_gain(d_direct, x.carrier_hz);
    double max_mag = 0.0;
    for (const auto& v : x.samples) max_mag = std::max(max_mag, std::abs(v));
    for (std::size_t i = 0; i < y.samples.size(); ++i) {
      const double t = static_cast<double>(i) / fs;
      if (t < d_direct / c && y.samples[i] != dsp::cplx{})
        return mismatch("propagate_wavy emits before the direct-path delay", i,
                        "exact zero");
      const double zs = cfg.surface_z +
                        cfg.wave_amplitude * std::sin(kTwoPi * cfg.wave_freq_hz * t);
      const channel::Vec3 image{cfg.source.x, cfg.source.y,
                                2.0 * zs - cfg.source.z};
      const double d_img = std::max(channel::distance(image, cfg.receiver), 1e-3);
      const double bound =
          (g_direct + std::abs(cfg.surface_reflection) *
                          channel::path_amplitude_gain(d_img, x.carrier_hz)) *
          max_mag;
      if (std::abs(y.samples[i]) > bound * (1.0 + 1e-9))
        return mismatch("propagate_wavy exceeds the two-path gain bound",
                        std::abs(y.samples[i]), bound);
    }
  }
  return CheckResult::pass();
}

CheckResult check_spatial_cull(std::uint64_t seed, const CullFn& subject) {
  Rng rng(seed);
  const sim::FieldSpec spec = gen_field_spec(rng);
  const sim::NodeField field = sim::NodeField::generate(spec);
  const auto& positions = field.positions();
  const std::size_t n = positions.size();

  // The production path end to end: a gain floor at a random carrier turns
  // into a radius through the bisection, so the audit covers that too.
  const double carrier = rng.uniform(10e3, 30e3);
  const double floor = rng.uniform(0.005, 0.1);
  const double radius =
      channel::cull_radius_m(floor, carrier, 4.0 * spec.extent_m());

  // Brute-force reference: every pair, plain distance threshold, i < j
  // lexicographic -- the order the culled path promises.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> brute;
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j)
      if (channel::distance(positions[i], positions[j]) <= radius)
        brute.emplace_back(i, j);

  // Grid-cell independence: the cell size is an accelerator knob, never a
  // semantic one.
  const double cells[] = {rng.uniform(1.0, 5.0), rng.uniform(5.0, 60.0),
                          std::max(radius, 1.0)};
  for (const double cell : cells) {
    const channel::SpatialIndex index(positions, cell);
    channel::CullStats stats;
    const auto kept = subject(index, radius, &stats);
    if (kept != brute)
      return mismatch(("culled pair list != brute-force distance threshold "
                       "(cell size " +
                       std::to_string(cell) + ")")
                          .c_str(),
                      kept.size(), brute.size());
    const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    if (stats.total_pairs != total)
      return mismatch("cull stats total_pairs", stats.total_pairs, total);
    if (stats.kept_pairs != kept.size())
      return mismatch("cull stats kept_pairs", stats.kept_pairs, kept.size());
    if (stats.kept_pairs + stats.culled_pairs != stats.total_pairs)
      return mismatch("cull stats kept + culled != total",
                      stats.kept_pairs + stats.culled_pairs, stats.total_pairs);
  }

  // Mean-gain accumulation set: the gain sum over the subject's kept list
  // must equal the brute within-radius sum exactly (same pairs, same order,
  // same plain += accumulation), and whenever pairs were culled the all-pairs
  // sum strictly exceeds it -- the historical field-census bug accumulated
  // every pair's gain while dividing by the kept count.
  {
    const channel::SpatialIndex index(positions, std::max(radius, 1.0));
    channel::CullStats stats;
    const auto kept = subject(index, radius, &stats);
    const auto pair_gain = [&](std::uint32_t i, std::uint32_t j) {
      const double d =
          std::max(channel::distance(positions[i], positions[j]), 1e-3);
      return channel::path_amplitude_gain(d, carrier);
    };
    double kept_sum = 0.0;
    for (const auto& [i, j] : kept) kept_sum += pair_gain(i, j);
    double brute_sum = 0.0;
    for (const auto& [i, j] : brute) brute_sum += pair_gain(i, j);
    if (kept_sum != brute_sum)
      return mismatch("kept-pair gain sum != brute within-radius gain sum",
                      kept_sum, brute_sum);
    double all_sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = i + 1; j < n; ++j) all_sum += pair_gain(i, j);
    if (stats.culled_pairs > 0 && kept_sum >= all_sum)
      return mismatch("culled pairs leaked into the gain accumulation",
                      kept_sum, all_sum);
  }

  // Gain-floor audit: the amplitude-gain estimator is monotone in distance
  // and the radius brackets the floor crossing to 1e-6 m, so a culled link
  // can never carry gain at or above the floor, and a kept link never falls
  // below it (tolerance covers the bracket width at the boundary).
  std::vector<std::uint8_t> kept_mask(n * n, 0);
  for (const auto& [i, j] : brute) kept_mask[i * n + j] = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const double d = channel::distance(positions[i], positions[j]);
      const double gain = channel::path_amplitude_gain(std::max(d, 1e-3), carrier);
      if (kept_mask[i * n + j] == 0 && gain >= floor * (1.0 + 1e-6))
        return mismatch("culled a pair whose gain clears the floor", gain,
                        floor);
      if (kept_mask[i * n + j] == 1 && gain < floor * (1.0 - 1e-6) &&
          radius < 4.0 * spec.extent_m())
        return mismatch("kept a pair whose gain sits below the floor", gain,
                        floor);
    }
  }
  return CheckResult::pass();
}

// --- mac ---------------------------------------------------------------------

CheckResult check_rate_control(std::uint64_t seed, const RateTraceFn& subject) {
  Rng rng(seed);
  const auto cfg = gen_rate_config(rng);
  const auto obs = gen_rate_observations(rng, cfg, 48);
  const auto trace = subject(cfg, obs);
  if (trace.size() != obs.size())
    return mismatch("rate trace length", trace.size(), obs.size());

  const std::size_t initial = std::min<std::size_t>(2, cfg.ladder.size() - 1);
  // Headroom of observation j over the scheme floor of the rung it met.
  const auto headroom = [&](std::size_t j) {
    const auto& rung = cfg.ladder[j == 0 ? initial : trace[j - 1].index];
    return obs[j].snr_db - phy::scheme_descriptor(rung.scheme).decode_floor_db;
  };
  const auto good = [&](std::size_t j) {
    return obs[j].crc_ok && headroom(j) >= cfg.up_margin_db;
  };
  const auto bad = [&](std::size_t j) {
    return (!obs[j].crc_ok && cfg.downshift_on_crc_failure) ||
           headroom(j) < cfg.down_margin_db;
  };

  std::size_t prev = initial;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const auto idx = trace[k].index;
    if (idx >= cfg.ladder.size())
      return mismatch("rate index out of table", idx, cfg.ladder.size());
    const auto step = static_cast<std::ptrdiff_t>(idx) -
                      static_cast<std::ptrdiff_t>(prev);
    if (step > 1 || step < -1)
      return mismatch("rate index moved more than one step", step, "+-1");
    if (trace[k].changed != (idx != prev))
      return mismatch("changed flag disagrees with the index delta", k, "agree");
    if (step == 1) {
      // Every upshift needs up_streak trailing observations that are all
      // CRC-clean with up-margin headroom.  A CRC failure anywhere in the
      // window must have reset the streak (the historical bug rewarded
      // failed packets that happened to carry high SNR estimates).
      if (k + 1 < static_cast<std::size_t>(cfg.up_streak))
        return mismatch("upshift before up_streak observations", k,
                        cfg.up_streak);
      for (std::size_t j = k + 1 - static_cast<std::size_t>(cfg.up_streak);
           j <= k; ++j) {
        if (!good(j)) {
          std::ostringstream os;
          os << "upshift at observation " << k << " not justified: obs " << j
             << " (snr " << obs[j].snr_db << " dB, crc "
             << (obs[j].crc_ok ? "ok" : "FAILED")
             << ") is not a clean up-margin observation";
          return CheckResult::fail(os.str());
        }
      }
    }
    if (step == -1 && !bad(k))
      return mismatch("downshift on a non-degraded observation", k, "bad obs");
    prev = idx;
  }
  return CheckResult::pass();
}

CheckResult check_scheduler_airtime(std::uint64_t seed,
                                    const SchedulerRunFn& subject) {
  Rng rng(seed);
  const auto cfg = gen_scheduler_config(rng);
  const auto script =
      gen_link_script(rng, static_cast<std::size_t>(rng.uniform_int(1, 24)));
  const auto uplink_bits = static_cast<std::size_t>(rng.uniform_int(16, 256));
  const double uplink_bitrate = rng.uniform(200.0, 4000.0);
  const double uplink_time =
      static_cast<double>(uplink_bits) / uplink_bitrate;

  const auto stats = subject(cfg, script, uplink_bits, uplink_bitrate);

  // Counter conservation.
  if (stats.attempts != stats.successes + stats.crc_failures + stats.no_response)
    return mismatch("attempts != successes + crc_failures + no_response",
                    stats.attempts,
                    stats.successes + stats.crc_failures + stats.no_response);

  // Elapsed airtime must be exactly reconstructible from the counters: every
  // attempt pays downlink + turnaround, and only attempts where a reply was
  // on the air (decoded or CRC-failed) pay the uplink slot.
  const double reconstructed =
      static_cast<double>(stats.attempts) *
          (cfg.downlink_time_s + cfg.turnaround_s) +
      static_cast<double>(stats.successes + stats.crc_failures) * uplink_time +
      static_cast<double>(stats.retries) * cfg.retry_backoff_s;
  if (!near(stats.elapsed_s, reconstructed, 1e-9))
    return mismatch("elapsed_s not reconstructible from counters",
                    stats.elapsed_s, reconstructed);

  // Differential check against a pure model of the retry protocol.
  mac::TransactionStats model;
  std::size_t cursor = 0;
  while (cursor < script.size()) {
    for (int attempt = 0; attempt <= cfg.max_retries; ++attempt) {
      const LinkOutcome o =
          cursor < script.size() ? script[cursor++] : LinkOutcome::kSilent;
      ++model.attempts;
      if (attempt > 0) {
        ++model.retries;
        model.elapsed_s += cfg.retry_backoff_s;
      }
      model.elapsed_s += cfg.downlink_time_s + cfg.turnaround_s;
      if (o == LinkOutcome::kDecoded) {
        ++model.successes;
        model.elapsed_s += uplink_time;
        model.payload_bits_delivered += 16.0;  // the scripted 2-byte payload
        break;
      }
      if (o == LinkOutcome::kCrcFailure) {
        ++model.crc_failures;
        model.elapsed_s += uplink_time;
      } else {
        ++model.no_response;
      }
    }
  }
  if (stats.attempts != model.attempts)
    return mismatch("attempts vs model", stats.attempts, model.attempts);
  if (stats.successes != model.successes)
    return mismatch("successes vs model", stats.successes, model.successes);
  if (stats.crc_failures != model.crc_failures)
    return mismatch("crc_failures vs model", stats.crc_failures,
                    model.crc_failures);
  if (stats.no_response != model.no_response)
    return mismatch("no_response vs model", stats.no_response,
                    model.no_response);
  if (stats.retries != model.retries)
    return mismatch("retries vs model", stats.retries, model.retries);
  if (!near(stats.payload_bits_delivered, model.payload_bits_delivered, 1e-9))
    return mismatch("payload bits vs model", stats.payload_bits_delivered,
                    model.payload_bits_delivered);
  if (!near(stats.elapsed_s, model.elapsed_s, 1e-9))
    return mismatch("elapsed_s vs model", stats.elapsed_s, model.elapsed_s);
  return CheckResult::pass();
}

CheckResult check_inventory_conservation(std::uint64_t seed,
                                         const InventoryFn& subject) {
  Rng rng(seed);
  const auto population = gen_population(rng);
  const auto cfg = gen_inventory_config(rng);
  mac::InventoryStats stats;
  const auto identified = subject(population, cfg, &stats);

  const std::set<std::uint8_t> pop_set(population.begin(), population.end());
  std::set<std::uint8_t> seen;
  for (const std::uint8_t id : identified) {
    if (pop_set.count(id) == 0)
      return mismatch("identified a node outside the population",
                      static_cast<int>(id), "member");
    if (!seen.insert(id).second)
      return mismatch("node identified twice", static_cast<int>(id), "once");
  }
  if (identified.size() != stats.singletons)
    return mismatch("identified count != singleton slots", identified.size(),
                    stats.singletons);
  if (stats.singletons + stats.collisions + stats.empties != stats.slots)
    return mismatch("singletons + collisions + empties != slots",
                    stats.singletons + stats.collisions + stats.empties,
                    stats.slots);
  if (stats.frames > static_cast<std::size_t>(cfg.max_frames))
    return mismatch("frames exceed the configured budget", stats.frames,
                    cfg.max_frames);
  const std::size_t lo = stats.frames << cfg.min_q;
  const std::size_t hi = stats.frames << cfg.max_q;
  if (stats.slots < lo || stats.slots > hi)
    return mismatch("total slots outside the q bounds", stats.slots, "in range");
  // Early termination means the pending list drained: identified set must
  // then equal the population set (every node accounted for, none lost).
  if (stats.frames < static_cast<std::size_t>(cfg.max_frames) &&
      seen != pop_set)
    return mismatch("early-terminating inventory lost nodes", seen.size(),
                    pop_set.size());
  return CheckResult::pass();
}

// --- energy ------------------------------------------------------------------

CheckResult check_ledger_conservation(std::uint64_t seed,
                                      const LedgerTotalFn& subject) {
  Rng rng(seed);
  const auto entries =
      gen_ledger_entries(rng, static_cast<std::size_t>(rng.uniform_int(1, 64)));

  // Reference sums, accumulated per category in entry order.
  std::array<double, static_cast<std::size_t>(energy::Category::kCount)> ref{};
  for (const auto& [c, joules] : entries)
    ref[static_cast<std::size_t>(c)] += joules;
  double ref_consumed = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (static_cast<energy::Category>(i) != energy::Category::kHarvested)
      ref_consumed += ref[i];

  const double consumed = subject(entries);
  if (consumed < 0.0)
    return mismatch("total_consumed is negative", consumed, ">= 0");
  if (!near(consumed, ref_consumed, 1e-9))
    return mismatch("total_consumed != sum of consumption categories",
                    consumed, ref_consumed);

  // The real ledger's per-category totals and its exported gauges must agree
  // with the reference regardless of the injected subject.
  energy::EnergyLedger ledger;
  for (const auto& [c, joules] : entries) ledger.add(c, joules);
  obs::MetricRegistry registry;
  ledger.export_to(registry, "check.energy");
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto c = static_cast<energy::Category>(i);
    if (!near(ledger.total(c), ref[i], 1e-12))
      return mismatch("per-category total drifted from the entry sum",
                      ledger.total(c), ref[i]);
    const double gauge =
        registry
            .gauge(std::string("check.energy.") + std::string(to_string(c)) +
                   "_joules")
            .value();
    if (!near(gauge, ref[i], 1e-12))
      return mismatch("exported gauge disagrees with the ledger", gauge, ref[i]);
  }
  if (!near(ledger.total_consumed() + ledger.harvested(),
            ref_consumed + ref[0], 1e-9))
    return mismatch("consumed + harvested != total of all categories",
                    ledger.total_consumed() + ledger.harvested(),
                    ref_consumed + ref[0]);
  return CheckResult::pass();
}

CheckResult check_planner_recharge(std::uint64_t seed,
                                   const RechargeFn& subject) {
  Rng rng(seed);
  const energy::EnergyPlanner planner;
  const auto cost = gen_transaction_cost(rng);
  const double harvest = std::pow(10.0, rng.uniform(-6.0, -2.0));  // 1 uW..10 mW

  const auto ok = subject(planner, harvest, cost);
  if (!ok.ok())
    return CheckResult::fail("recharge_time_s failed for positive harvest: " +
                             ok.error().message());
  if (!(ok.value() > 0.0) || !std::isfinite(ok.value()))
    return mismatch("recharge time must be positive and finite", ok.value(),
                    "> 0");
  const double want = planner.transaction_energy_j(cost) / harvest;
  if (!near(ok.value(), want, 1e-9))
    return mismatch("recharge time != transaction energy / harvest",
                    ok.value(), want);

  // Non-positive harvest can never bank a transaction: that is an error,
  // never a sentinel value smuggled into downstream arithmetic.
  for (const double bad_harvest : {0.0, -rng.uniform(1e-6, 1e-3)}) {
    const auto bad = subject(planner, bad_harvest, cost);
    if (bad.ok())
      return mismatch("recharge_time_s returned a value for harvest <= 0",
                      bad.value(), "error");
  }
  return CheckResult::pass();
}

// --- phy ---------------------------------------------------------------------

CheckResult check_decode_roundtrip(std::uint64_t seed) {
  Rng rng(seed);
  auto waveform = gen_waveform(rng);
  // Keep chips-per-bit modest so a trial stays in the millisecond range.
  waveform.bitrate = std::max(waveform.bitrate, 1000.0);
  const double fs = 96000.0;
  const auto bits = rng.bits(waveform.payload_bits);

  // FM0-modulate preamble + payload into an envelope, then perturb: random
  // lead-in, mid level, swing (possibly inverted), and mild noise.
  const auto sw =
      phy::scheme_waveform(phy::SchemeId::kFm0, bits, waveform.bitrate, fs);
  const double mid = rng.uniform(0.5, 2.0);
  double amp = mid * rng.uniform(0.02, 0.1);
  if (rng.bernoulli(0.5)) amp = -amp;  // anti-phase backscatter
  const auto lead = static_cast<std::size_t>(rng.uniform_int(100, 1200));
  const double noise = rng.bernoulli(0.5)
                           ? rng.uniform(0.0, 0.1) * std::abs(amp)
                           : 0.0;
  std::vector<double> env(lead, mid - amp);
  for (const auto s : sw)
    env.push_back(s == phy::SwitchState::kReflective ? mid + amp : mid - amp);
  env.insert(env.end(), lead, mid - amp);
  if (noise > 0.0)
    for (auto& v : env) v += rng.gaussian(0.0, noise);

  phy::DemodConfig config;
  config.bitrate = waveform.bitrate;
  config.sample_rate = fs;
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, config});
  const auto r = demod.demodulate_envelope(env, fs, bits.size());
  if (!r.ok())
    return CheckResult::fail("round-trip decode failed: " +
                             r.error().message());
  if (r.value().bits != bits) {
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
      errors += r.value().bits[i] != bits[i];
    return mismatch("round-trip bit errors", errors, 0);
  }
  return CheckResult::pass();
}

CheckResult check_link_quality(std::uint64_t seed,
                               const LinkQualityFn& subject) {
  Rng rng(seed);
  auto waveform = gen_waveform(rng);
  waveform.bitrate = std::max(waveform.bitrate, 1000.0);
  const double fs = 96000.0;
  const auto bits = rng.bits(waveform.payload_bits);

  // One FM0 burst, replayed at three noise levels (clean, mild, heavy) with
  // identical geometry: the soft metrics must be internally consistent at
  // every level and ordered across them.
  const auto sw =
      phy::scheme_waveform(phy::SchemeId::kFm0, bits, waveform.bitrate, fs);
  const double mid = rng.uniform(0.5, 2.0);
  double amp = mid * rng.uniform(0.02, 0.1);
  if (rng.bernoulli(0.5)) amp = -amp;  // anti-phase backscatter
  const auto lead = static_cast<std::size_t>(rng.uniform_int(100, 1200));

  phy::DemodConfig config;
  config.bitrate = waveform.bitrate;
  config.sample_rate = fs;

  const std::array<double, 3> noise_frac = {0.0, 0.04, 0.30};
  std::array<phy::DemodResult, 3> results;
  for (std::size_t k = 0; k < noise_frac.size(); ++k) {
    std::vector<double> env(lead, mid - amp);
    for (const auto s : sw)
      env.push_back(s == phy::SwitchState::kReflective ? mid + amp : mid - amp);
    env.insert(env.end(), lead, mid - amp);
    const double noise = noise_frac[k] * std::abs(amp);
    if (noise > 0.0)
      for (auto& v : env) v += rng.gaussian(0.0, noise);
    const auto r = subject(env, fs, bits.size(), config);
    if (!r.ok())
      return CheckResult::fail("link-quality probe failed to decode: " +
                               r.error().message());
    results[k] = r.value();
  }

  const double bandwidth_hz = 2.0 * config.bitrate;  // FM0 chip rate
  for (std::size_t k = 0; k < results.size(); ++k) {
    const phy::LinkQuality& q = results[k].quality;
    if (!std::isfinite(q.evm_rms) || !std::isfinite(q.mer_db) ||
        !std::isfinite(q.cn0_dbhz))
      return CheckResult::fail("link-quality metrics must be finite");
    if (q.evm_rms < 0.0)
      return mismatch("evm_rms must be non-negative", q.evm_rms, ">= 0");
    if (std::abs(q.mer_db) > phy::kMerClampDb)
      return mismatch("mer_db outside the clamp", q.mer_db, phy::kMerClampDb);
    // CN0 is MER read in the detection bandwidth, exactly.
    const double want_cn0 = q.mer_db + 10.0 * std::log10(bandwidth_hz);
    if (!near(q.cn0_dbhz, want_cn0, 1e-9))
      return mismatch("cn0_dbhz != mer_db + 10log10(bandwidth)", q.cn0_dbhz,
                      want_cn0);
    // For FM0 the MER estimator and the packet SNR estimator are the same
    // quantity (re-encoded chip error power over the estimated swing).
    if (!near(q.mer_db, results[k].snr_db, 1e-9))
      return mismatch("FM0 mer_db != snr_db", q.mer_db, results[k].snr_db);
    // Off the clamp, EVM and MER are two readings of one error ratio.
    if (q.mer_db < phy::kMerClampDb - 1e-6) {
      const double want_evm = std::pow(10.0, -q.mer_db / 20.0);
      if (!near(q.evm_rms, want_evm, 1e-9))
        return mismatch("evm_rms != 10^(-mer/20)", q.evm_rms, want_evm);
    }
  }

  // Ordering across noise levels: a heavily impaired burst can never report
  // better MER (or lower EVM) than the clean replay of the same burst.
  if (!(results[0].quality.mer_db > results[2].quality.mer_db))
    return mismatch("clean MER must exceed heavy-noise MER",
                    results[0].quality.mer_db, results[2].quality.mer_db);
  if (!(results[1].quality.mer_db > results[2].quality.mer_db))
    return mismatch("mild-noise MER must exceed heavy-noise MER",
                    results[1].quality.mer_db, results[2].quality.mer_db);
  if (!(results[2].quality.evm_rms > results[0].quality.evm_rms))
    return mismatch("heavy-noise EVM must exceed clean EVM",
                    results[2].quality.evm_rms, results[0].quality.evm_rms);
  return CheckResult::pass();
}

// --- sim ---------------------------------------------------------------------

CheckResult check_scenario_wiring(std::uint64_t seed) {
  Rng rng(seed);
  const auto s = gen_scenario(rng);
  if (s.field.front_ends().size() != s.node_count())
    return mismatch("front end count != node count",
                    s.field.front_ends().size(), s.node_count());
  // The unified accessor: node(j), node_position(j), and the field must agree
  // for every j -- no node-0 special case anywhere.
  for (std::size_t j = 0; j < s.node_count(); ++j) {
    const sim::NodeView v = s.node(j);
    if (v.index != j) return CheckResult::fail("node(j).index != j");
    if (!(v.position == s.node_position(j)) ||
        !(v.position == s.field.position(j)))
      return CheckResult::fail("node(j).position != node_position(j)");
    if (!(v.front_end == s.field.front_end(j)))
      return CheckResult::fail("node(j).front_end != field.front_end(j)");
  }
  // The legacy 3-point view the core simulators consume is derived, never
  // stored: its node slot must be node 0 exactly.
  const core::Placement legacy = s.placement();
  if (!(legacy.node == s.node_position(0)))
    return CheckResult::fail("placement().node != node_position(0)");
  if (!(legacy.projector == s.reader.projector) ||
      !(legacy.hydrophone == s.reader.hydrophone))
    return CheckResult::fail("placement() != reader placement");
  const auto reseeded = s.with_seed(s.medium.seed + 17);
  if (reseeded.medium.seed != s.medium.seed + 17)
    return CheckResult::fail("with_seed did not set the seed");
  if (reseeded.waveform.bitrate != s.waveform.bitrate ||
      reseeded.node_count() != s.node_count())
    return CheckResult::fail("with_seed perturbed unrelated fields");
  auto w = s.waveform;
  w.bitrate += 100.0;
  const auto rewaved = s.with_waveform(w);
  if (rewaved.waveform.bitrate != w.bitrate ||
      rewaved.medium.seed != s.medium.seed)
    return CheckResult::fail("with_waveform did not isolate the waveform");
  // Generator contract: every instrument sits inside the tank.
  const auto& size = s.medium.tank.size;
  for (std::size_t j = 0; j < s.node_count(); ++j) {
    const auto& p = s.node_position(j);
    if (p.x < 0.0 || p.x > size.x || p.y < 0.0 || p.y > size.y || p.z < 0.0 ||
        p.z > size.z)
      return CheckResult::fail("generated node outside the tank");
  }
  return CheckResult::pass();
}

// --- the suite ---------------------------------------------------------------

CheckResult check_timeline_monotonic(std::uint64_t seed,
                                     const TimelineRunFn& subject) {
  Rng rng(seed);
  const auto ops =
      gen_timeline_ops(rng, static_cast<std::size_t>(rng.uniform_int(4, 60)));
  const auto probe = subject(ops);

  // 1) The log is a record of time moving forward, and among *scheduled*
  // (queue-popped) events at equal time the pop order is the creation
  // sequence.  Charges/elapses are processed at their call sites, so they
  // interleave with equal-time scheduled entries by processing order.
  for (std::size_t i = 1; i < probe.log.size(); ++i) {
    if (probe.log[i].time < probe.log[i - 1].time)
      return mismatch("event log times must be non-decreasing",
                      probe.log[i].time, probe.log[i - 1].time);
  }
  const sim::TimelineEvent* last_scheduled = nullptr;
  for (const auto& e : probe.log) {
    if (e.kind != sim::TimelineEventKind::kScheduled) continue;
    if (last_scheduled != nullptr && e.time == last_scheduled->time &&
        e.seq <= last_scheduled->seq)
      return mismatch("equal-time scheduled events must pop in seq order",
                      e.seq, last_scheduled->seq);
    last_scheduled = &e;
  }
  // 2) The clock never ends before the last thing that happened.
  if (!probe.log.empty() && probe.now < probe.log.back().time)
    return mismatch("now() ended before the last log entry", probe.now,
                    probe.log.back().time);
  // 3) Everything processed is in the log (logging was on).
  if (probe.events_processed != probe.log.size())
    return mismatch("events_processed != log size", probe.events_processed,
                    probe.log.size());
  // 4) Per-label sums re-derive exactly from the log, in log order, with the
  // same compensated accumulator the Timeline uses.
  std::map<std::string, NeumaierSum> resum;
  for (const auto& e : probe.log) resum[e.label].add(e.value);
  for (const auto& [label, reported] : probe.sums) {
    const auto it = resum.find(label);
    const double expected = it == resum.end() ? 0.0 : it->second.value();
    if (reported != expected)
      return mismatch(("charged sum not reconstructible from log: " + label)
                          .c_str(),
                      reported, expected);
  }
  // 5) Determinism: the same script replays to a bit-identical probe.
  const auto again = subject(ops);
  if (again.log != probe.log || again.now != probe.now ||
      again.sums != probe.sums)
    return CheckResult::fail(
        "timeline replay diverged: same op script produced a different "
        "event log (wall-clock or ambient nondeterminism)");
  return CheckResult::pass();
}

CheckResult check_timeline_reconstruction(std::uint64_t seed,
                                          const TimedSchedulerRunFn& subject,
                                          const ZonedRunFn& zoned_subject) {
  Rng rng(seed);
  const auto cfg = gen_timed_scheduler_config(rng);
  const auto script =
      gen_link_script(rng, static_cast<std::size_t>(rng.uniform_int(1, 24)));
  const auto charges =
      gen_ledger_entries(rng, static_cast<std::size_t>(rng.uniform_int(0, 30)));
  const auto uplink_bits = static_cast<std::size_t>(rng.uniform_int(16, 256));
  const double uplink_bitrate = rng.uniform(200.0, 4000.0);

  const auto probe = subject(cfg, script, charges, uplink_bits, uplink_bitrate);

  // Airtime: the four mac phases, re-summed from the log in order with the
  // scheduler's own accumulator, must equal stats.elapsed_s bit for bit.
  NeumaierSum airtime;
  std::size_t downlinks = 0, turnarounds = 0, uplinks = 0, backoffs = 0;
  std::size_t retries = 0, crc_failures = 0, no_response = 0, successes = 0;
  std::size_t timeouts = 0;
  double payload_bits = 0.0;
  for (const auto& e : probe.log) {
    if (e.label == "mac.downlink") { airtime.add(e.value); ++downlinks; }
    else if (e.label == "mac.turnaround") { airtime.add(e.value); ++turnarounds; }
    else if (e.label == "mac.uplink") { airtime.add(e.value); ++uplinks; }
    else if (e.label == "mac.retry_backoff") { airtime.add(e.value); ++backoffs; }
    else if (e.label == "mac.retry") ++retries;
    else if (e.label == "mac.crc_failure") ++crc_failures;
    else if (e.label == "mac.no_response") ++no_response;
    else if (e.label == "mac.query_timeout") ++timeouts;
    else if (e.label == "mac.payload_bits") { ++successes; payload_bits += e.value; }
  }
  if (probe.stats.elapsed_s != airtime.value())
    return mismatch("elapsed_s != event-log airtime sum", probe.stats.elapsed_s,
                    airtime.value());
  // Every counter reconstructs from its marker events.
  if (probe.stats.attempts != downlinks)
    return mismatch("attempts != downlink events", probe.stats.attempts,
                    downlinks);
  if (turnarounds != downlinks)
    return mismatch("every attempt pays exactly one turnaround", turnarounds,
                    downlinks);
  if (probe.stats.successes + probe.stats.crc_failures != uplinks)
    return mismatch("uplink events != replies (successes + crc_failures)",
                    uplinks, probe.stats.successes + probe.stats.crc_failures);
  if (probe.stats.retries != retries)
    return mismatch("retries != retry markers", probe.stats.retries, retries);
  if (cfg.retry_backoff_s > 0.0 && backoffs != retries)
    return mismatch("each retry pays one backoff", backoffs, retries);
  if (probe.stats.successes != successes)
    return mismatch("successes != payload_bits events", probe.stats.successes,
                    successes);
  if (probe.stats.crc_failures != crc_failures)
    return mismatch("crc_failures != crc markers", probe.stats.crc_failures,
                    crc_failures);
  if (probe.stats.no_response != no_response)
    return mismatch("no_response != silence markers", probe.stats.no_response,
                    no_response);
  if (probe.stats.payload_bits_delivered != payload_bits)
    return mismatch("payload bits != payload_bits event sum",
                    probe.stats.payload_bits_delivered, payload_bits);
  // Ledger: each category total re-derives bit-exactly from its
  // "energy.<category>" log entries summed in log order (the ledger itself
  // accumulates with plain += in that same order).
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(energy::Category::kCount); ++i) {
    const auto c = static_cast<energy::Category>(i);
    const std::string label = "energy." + std::string(energy::to_string(c));
    double resum = 0.0;
    for (const auto& e : probe.log)
      if (e.label == label) resum += e.value;
    if (probe.ledger_totals[i] != resum)
      return mismatch(("ledger total not reconstructible: " + label).c_str(),
                      probe.ledger_totals[i], resum);
  }

  // Zoned-inventory path: with the slots on the master timeline, the whole
  // round is auditable from the log.  Frame/slot counts re-derive from their
  // marker events; busy_s (the *sum* of per-zone durations, the airtime
  // actually charged) re-sums bit-exactly from the per-zone completion
  // charges with the timeline's own compensated accumulator; simulated_s
  // (the *sum of per-round maxima*, the wall time) replays from the
  // "mac.zone.round" entries with the plain += the result uses; and the
  // final clock lands exactly on simulated_s.  The historical booking
  // charged the busy sum under one label while the clock advanced by the
  // round max -- the split is what this audit pins down.
  const ZonedScenario zs = gen_zoned_scenario(rng);
  mac::ZoneInterferenceModel zmodel;
  zmodel.enabled = rng.bernoulli(0.5);
  zmodel.noise_power = zs.noise_power;
  zmodel.capture_threshold_db = zs.capture_threshold_db;
  zmodel.mask = zs.mask;
  zmodel.node_amplitude = zs.amplitude;
  const auto zp = zoned_subject(zs, zmodel);
  std::size_t frames = 0, slots = 0, rounds = 0;
  NeumaierSum busy;
  double walls = 0.0;
  for (const auto& e : zp.log) {
    if (e.label == "mac.zone.frame") ++frames;
    else if (e.label == "mac.zone.slot") ++slots;
    else if (e.label == "mac.zone.inventory.busy_s") busy.add(e.value);
    else if (e.label == "mac.zone.round") { ++rounds; walls += e.value; }
  }
  if (zp.result.inventory.frames != frames)
    return mismatch("zoned frames != frame marker events",
                    zp.result.inventory.frames, frames);
  if (zp.result.inventory.slots != slots)
    return mismatch("zoned slots != slot marker events",
                    zp.result.inventory.slots, slots);
  if (zp.result.rounds != rounds)
    return mismatch("zoned rounds != round wall entries", zp.result.rounds,
                    rounds);
  if (zp.result.busy_s != busy.value())
    return mismatch("zoned busy_s not reconstructible from busy charges",
                    zp.result.busy_s, busy.value());
  if (zp.result.simulated_s != walls)
    return mismatch("zoned simulated_s not reconstructible from round walls",
                    zp.result.simulated_s, walls);
  if (zp.now != zp.result.simulated_s)
    return mismatch("zoned clock did not land on simulated_s (wall, not busy, "
                    "advances time)",
                    zp.now, zp.result.simulated_s);
  return CheckResult::pass();
}

CheckResult check_zone_interference(std::uint64_t seed,
                                    const ZonedRunFn& subject) {
  Rng rng(seed);
  const ZonedScenario s = gen_zoned_scenario(rng);
  std::set<std::uint32_t> member_set;
  for (const auto& members : s.layout.members)
    member_set.insert(members.begin(), members.end());

  mac::ZoneInterferenceModel on;
  on.enabled = true;
  on.noise_power = s.noise_power;
  on.capture_threshold_db = s.capture_threshold_db;
  on.mask = s.mask;
  on.node_amplitude = s.amplitude;

  const auto ledger_ok = [&](const ZonedRunProbe& p, bool model_enabled,
                             const char* phase) -> CheckResult {
    const auto& r = p.result;
    const auto& inv = r.inventory;
    if (inv.singletons + inv.collisions + inv.empties != inv.slots)
      return mismatch(
          (std::string(phase) +
           ": singletons + collisions + empties != slots under corruption")
              .c_str(),
          inv.singletons + inv.collisions + inv.empties, inv.slots);
    if (r.identified.size() != inv.singletons)
      return mismatch(
          (std::string(phase) + ": identified count != clean singletons")
              .c_str(),
          r.identified.size(), inv.singletons);
    if (model_enabled &&
        r.sinr_evaluated_slots != inv.singletons + r.corrupted_slots)
      return mismatch((std::string(phase) +
                       ": every singleton reply gets exactly one SINR verdict")
                          .c_str(),
                      r.sinr_evaluated_slots,
                      inv.singletons + r.corrupted_slots);
    if (r.corrupted_slots > inv.collisions)
      return mismatch(
          (std::string(phase) + ": corrupted slots must be booked as "
                                "collisions")
              .c_str(),
          r.corrupted_slots, inv.collisions);
    std::set<std::uint32_t> uniq(r.identified.begin(), r.identified.end());
    if (uniq.size() != r.identified.size())
      return CheckResult::fail(std::string(phase) +
                               ": a node was identified twice");
    for (const std::uint32_t id : r.identified)
      if (!member_set.contains(id))
        return CheckResult::fail(std::string(phase) +
                                 ": identified a node outside the layout");
    if (!std::isfinite(r.mean_slot_sinr_db))
      return CheckResult::fail(std::string(phase) +
                               ": mean slot SINR is not finite");
    if (r.sinr_evaluated_slots == 0 && r.mean_slot_sinr_db != 0.0)
      return mismatch(
          (std::string(phase) + ": mean SINR without evaluated slots").c_str(),
          r.mean_slot_sinr_db, 0.0);
    return CheckResult::pass();
  };

  const auto probe = subject(s, on);
  if (auto r = ledger_ok(probe, true, "interference on"); !r.ok) return r;

  // The interference-off reference: no verdicts, nothing corrupted.
  const auto off = subject(s, mac::ZoneInterferenceModel{});
  if (auto r = ledger_ok(off, false, "interference off"); !r.ok) return r;
  if (off.result.corrupted_slots != 0 || off.result.sinr_evaluated_slots != 0)
    return CheckResult::fail(
        "interference off: the SINR ledger must stay empty");

  // Always-capture extreme: a threshold below the SINR clamp never corrupts,
  // and the run is indistinguishable from interference off -- same ids in
  // the same order, same stats, same clock bits.
  mac::ZoneInterferenceModel permissive = on;
  permissive.capture_threshold_db = -1e9;
  const auto always = subject(s, permissive);
  if (always.result.corrupted_slots != 0)
    return mismatch("always-capture threshold still corrupted slots",
                    always.result.corrupted_slots, 0);
  if (always.result.identified != off.result.identified)
    return CheckResult::fail(
        "always-capture run identified different nodes than interference off");
  if (always.result.inventory.slots != off.result.inventory.slots ||
      always.result.inventory.frames != off.result.inventory.frames ||
      always.result.inventory.collisions != off.result.inventory.collisions)
    return CheckResult::fail(
        "always-capture run took a different schedule than interference off");
  if (always.result.simulated_s != off.result.simulated_s ||
      always.result.busy_s != off.result.busy_s)
    return CheckResult::fail(
        "always-capture run's clock diverged from interference off");

  // Never-capture extreme: with positive noise every evaluated slot is
  // corrupted and nobody is ever identified.
  mac::ZoneInterferenceModel impossible = on;
  impossible.capture_threshold_db = 1e9;
  const auto never = subject(s, impossible);
  if (auto r = ledger_ok(never, true, "never-capture"); !r.ok) return r;
  if (!never.result.identified.empty())
    return mismatch("never-capture threshold still identified nodes",
                    never.result.identified.size(), 0);
  if (never.result.corrupted_slots != never.result.sinr_evaluated_slots)
    return mismatch("never-capture threshold left clean singletons",
                    never.result.corrupted_slots,
                    never.result.sinr_evaluated_slots);
  return CheckResult::pass();
}

namespace {

// A small randomized campaign: two operating points, a handful of trials.
// Mostly the timeline kind (pure event simulation, sub-millisecond trials)
// with an occasional cut-down uplink campaign so the full signal path stays
// covered without dominating the audit's runtime.
campaign::CampaignSpec gen_campaign_spec(Rng& rng) {
  campaign::CampaignSpec spec;
  spec.name = "audit";
  spec.preset = "pool_a";
  spec.base_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  spec.trials_per_point = static_cast<std::uint64_t>(rng.uniform_int(2, 4));
  if (rng.bernoulli(0.2)) {
    spec.kind = sim::TrialKind::kUplink;
    spec.axes.push_back({"waveform.payload_bits", {16.0}});
    spec.axes.push_back({"noise.psd_db_re_upa", {40.0, 50.0}});
  } else {
    spec.kind = sim::TrialKind::kTimeline;
    spec.axes.push_back({"waveform.payload_bits", {32.0, 64.0}});
    spec.timeline["horizon_s"] = rng.uniform(3.0, 8.0);
  }
  return spec;
}

// Deterministic counters only: histograms time wall-clock and gauges carry
// arena capacities, so the cross-partition contract covers counters.  Cache
// counters (hit/miss splits) depend on the shard partition -- a fresh
// Session per shard starts cold -- so they only participate when comparing
// runs of the SAME partition.
CheckResult counters_equal(const char* property,
                           const obs::MetricsSnapshot& a,
                           const obs::MetricsSnapshot& b) {
  if (a.counters == b.counters) return CheckResult::pass();
  for (const auto& [name, value] : a.counters) {
    const auto it = b.counters.find(name);
    if (it == b.counters.end())
      return CheckResult::fail(std::string(property) + ": counter " + name +
                               " missing from the second run");
    if (it->second != value)
      return mismatch((std::string(property) + ": counter " + name).c_str(),
                      it->second, value);
  }
  return CheckResult::fail(std::string(property) +
                           ": second run grew extra counters");
}

}  // namespace

CheckResult check_campaign_shard_merge(std::uint64_t seed) {
  Rng rng(seed);
  const campaign::CampaignSpec spec = gen_campaign_spec(rng);
  campaign::BatchExecutor executor;

  campaign::RunOptions per_point;
  per_point.shard_size = 0;  // one shard per operating point
  campaign::RunOptions sliced;
  sliced.shard_size = static_cast<std::uint64_t>(rng.uniform_int(1, 3));

  auto a = executor.run(spec, per_point);
  if (!a.ok())
    return CheckResult::fail("per-point campaign failed: " +
                             a.error().message());
  auto b = executor.run(spec, sliced);
  if (!b.ok())
    return CheckResult::fail("sliced campaign failed: " + b.error().message());
  if (a.value().records_bytes() != b.value().records_bytes())
    return CheckResult::fail(
        "shard partition changed campaign records (shard_size " +
        std::to_string(sliced.shard_size) + " vs one shard per point)");

  // Merge is order-independent: executing the same partition back to front
  // and folding through assemble_result must reproduce the in-order run
  // exactly, counters included (same partition, so cache splits match too).
  const std::vector<campaign::Shard> shards = spec.compile(sliced.shard_size);
  std::vector<campaign::ShardOutput> reversed;
  reversed.reserve(shards.size());
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    auto out = campaign::run_shard(spec, *it, /*threads=*/1);
    if (!out.ok())
      return CheckResult::fail("shard " + std::to_string(it->index) +
                               " failed: " + out.error().message());
    reversed.push_back(std::move(out).value());
  }
  auto c = campaign::assemble_result(spec, std::move(reversed));
  if (!c.ok())
    return CheckResult::fail("assemble of reversed shards failed: " +
                             c.error().message());
  if (c.value().records_bytes() != b.value().records_bytes())
    return CheckResult::fail("assemble_result is not shard-order independent");
  return counters_equal("reversed-order fold diverged", b.value().metrics,
                        c.value().metrics);
}

CheckResult check_campaign_resume(std::uint64_t seed) {
  Rng rng(seed);
  const campaign::CampaignSpec spec = gen_campaign_spec(rng);
  campaign::BatchExecutor executor;

  campaign::RunOptions options;
  options.shard_size = 1;  // >= 4 shards: 2 points x >= 2 trials
  auto uninterrupted = executor.run(spec, options);
  if (!uninterrupted.ok())
    return CheckResult::fail("uninterrupted campaign failed: " +
                             uninterrupted.error().message());

  namespace fs = std::filesystem;
  const std::uint64_t shard_count = spec.compile(options.shard_size).size();
  const fs::path dir =
      fs::temp_directory_path() /
      ("pab-audit-resume-" + std::to_string(seed) + "-" +
       std::to_string(reinterpret_cast<std::uintptr_t>(&options)));
  campaign::RunOptions interrupted = options;
  interrupted.checkpoint_dir = dir.string();
  interrupted.max_shards = shard_count / 2;  // strictly mid-campaign

  auto first = executor.run(spec, interrupted);
  const auto cleanup = [&] { fs::remove_all(dir); };
  if (first.ok()) {
    cleanup();
    return CheckResult::fail(
        "interrupted campaign returned a result instead of an error");
  }
  if (first.code() != pab::ErrorCode::kTimeout) {
    cleanup();
    return CheckResult::fail("interruption reported " +
                             std::string(first.error().message()) +
                             ", want kTimeout");
  }

  campaign::RunOptions resumed = interrupted;
  resumed.max_shards = 0;
  resumed.resume = true;
  auto second = executor.run(spec, resumed);
  if (!second.ok()) {
    cleanup();
    return CheckResult::fail("resumed campaign failed: " +
                             second.error().message());
  }
  cleanup();
  if (second.value().records_bytes() != uninterrupted.value().records_bytes())
    return CheckResult::fail(
        "resumed campaign records differ from the uninterrupted run");
  return counters_equal("resumed campaign counters diverged",
                        uninterrupted.value().metrics,
                        second.value().metrics);
}

std::vector<Invariant> default_invariants() {
  return {
      {"channel.sample_interpolation",
       "fractional-delay reads keep every valid sample (no tail truncation)",
       [](std::uint64_t s) { return check_sample_interpolation(s); }},
      {"channel.causality",
       "time-varying propagation is causal and bounded by the path gain",
       [](std::uint64_t s) { return check_channel_causality(s); }},
      {"channel.spatial_cull",
       "spatial culling equals the brute-force gain-floor threshold exactly",
       [](std::uint64_t s) { return check_spatial_cull(s); }},
      {"mac.rate_control",
       "upshifts require CRC-clean up-margin streaks; steps stay in the table",
       [](std::uint64_t s) { return check_rate_control(s); }},
      {"mac.scheduler_airtime",
       "elapsed_s reconstructs exactly from attempt/reply counters",
       [](std::uint64_t s) { return check_scheduler_airtime(s); }},
      {"mac.inventory",
       "slot conservation and no node lost or double-counted per inventory",
       [](std::uint64_t s) { return check_inventory_conservation(s); }},
      {"mac.zone_interference",
       "slot ledger conserved under cross-zone SINR corruption; capture "
       "extremes behave",
       [](std::uint64_t s) { return check_zone_interference(s); }},
      {"energy.ledger",
       "consumed = sum of consumption categories; harvested never leaks in",
       [](std::uint64_t s) { return check_ledger_conservation(s); }},
      {"energy.planner_recharge",
       "recharge time is energy/harvest or an explicit error, never a sentinel",
       [](std::uint64_t s) { return check_planner_recharge(s); }},
      {"phy.decode_roundtrip",
       "modulate -> perturb -> demodulate returns the transmitted bits",
       [](std::uint64_t s) { return check_decode_roundtrip(s); }},
      {"phy.link_quality",
       "EVM/MER/CN0 are finite, mutually consistent, and track channel noise",
       [](std::uint64_t s) { return check_link_quality(s); }},
      {"sim.scenario_wiring",
       "scenario accessors and fluent copies stay mutually consistent",
       [](std::uint64_t s) { return check_scenario_wiring(s); }},
      {"timeline.monotonic_clock",
       "event log is monotone with stable (time, seq) ties and exact sums",
       [](std::uint64_t s) { return check_timeline_monotonic(s); }},
      {"timeline.event_reconstruction",
       "stats and ledger totals re-derive bit-exactly from the event log",
       [](std::uint64_t s) { return check_timeline_reconstruction(s); }},
      {"campaign.shard_merge",
       "campaign records are invariant under shard partition and fold order",
       [](std::uint64_t s) { return check_campaign_shard_merge(s); }},
      {"campaign.resume",
       "a checkpointed campaign resumes to the uninterrupted run's bytes",
       [](std::uint64_t s) { return check_campaign_resume(s); }},
  };
}

}  // namespace pab::check
