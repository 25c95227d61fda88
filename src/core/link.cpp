#include "core/link.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/envelope.hpp"
#include "dsp/simd.hpp"
#include "phy/scheme.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::core {

ModulationStates modulation_states(const circuit::RectoPiezo& front_end,
                                   double carrier_hz, double bitrate) {
  // Complex scatter gain per state.  The differential component is derated by
  // the recto-piezo's bandwidth efficiency at this bitrate (sidebands beyond
  // the electrical resonance modulate weakly).
  const dsp::cplx g_r0 = front_end.scatter_gain(carrier_hz, /*reflective=*/true);
  const dsp::cplx g_a0 = front_end.scatter_gain(carrier_hz, /*reflective=*/false);
  const double eta_bw = front_end.bandwidth_efficiency(carrier_hz, bitrate);
  const dsp::cplx g_mid = 0.5 * (g_r0 + g_a0);
  const dsp::cplx g_half = 0.5 * (g_r0 - g_a0) * eta_bw;
  return ModulationStates{g_mid + g_half, g_mid - g_half};
}

bool uplink_timing_ok(const sim::Waveform& cfg, std::size_t packet_samples,
                      double sample_rate) {
  const auto usable = [](double s) { return std::isfinite(s) && s >= 0.0; };
  if (!usable(cfg.node_start_s) || !usable(cfg.tail_s)) return false;
  const double total_s = cfg.node_start_s +
                         static_cast<double>(packet_samples) / sample_rate +
                         cfg.tail_s;
  return total_s * sample_rate < 0x1p53;
}

namespace {

// The states `cfg`'s scheme switches between at its FM0-equivalent rate.
ModulationStates waveform_states(const circuit::RectoPiezo& front_end,
                                 const sim::Waveform& cfg) {
  return modulation_states(
      front_end, cfg.carrier_hz,
      phy::scheme_descriptor(cfg.scheme).effective_bitrate(cfg.bitrate));
}

}  // namespace

LinkSimulator::LinkSimulator(SimConfig config, Placement placement)
    : LinkSimulator(config, placement,
                    std::make_shared<channel::TapCache>(
                        config.tank, config.max_image_order,
                        config.use_image_method)) {}

LinkSimulator::LinkSimulator(SimConfig config, Placement placement,
                             std::shared_ptr<channel::TapCache> tap_cache)
    : config_(config),
      placement_(placement),
      tap_cache_(std::move(tap_cache)) {
  require(config_.sample_rate > 0.0, "LinkSimulator: sample rate must be positive");
  require(tap_cache_ != nullptr, "LinkSimulator: tap cache must not be null");
}

void LinkSimulator::set_metrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
  const auto timer = [metrics](const char* name) {
    return metrics != nullptr ? &metrics->histogram(name) : nullptr;
  };
  t_uplink_run_ = timer("core.link.uplink_run_seconds");
  t_decode_ = timer("core.link.decode_seconds");
  t_switch_ = timer("core.link.synth.switch_seconds");
  t_cw_ = timer("core.link.synth.cw_seconds");
  t_taps_ = timer("core.link.synth.taps_seconds");
  t_scatter_ = timer("core.link.synth.scatter_seconds");
  t_upconvert_ = timer("core.link.synth.upconvert_seconds");
  t_noise_ = timer("core.link.synth.noise_seconds");
}

const std::vector<channel::PathTap>& LinkSimulator::taps(const channel::Vec3& a,
                                                         const channel::Vec3& b,
                                                         double freq_hz) const {
  // The cache owns the tap vectors for its whole lifetime, so handing out a
  // reference is safe while this simulator (which shares ownership) exists.
  return *tap_cache_->taps(a, b, freq_hz);
}

double LinkSimulator::incident_pressure(const Projector& projector,
                                        double freq_hz) const {
  const auto& t = taps(placement_.projector, placement_.node, freq_hz);
  return projector.pressure_at_1m(freq_hz) * channel::coherent_gain(t, freq_hz);
}

void LinkSimulator::run_uplink_into(const Projector& projector,
                                    const ModulationStates& states,
                                    std::span<const std::uint8_t> data_bits,
                                    const sim::Waveform& cfg, pab::Rng& rng,
                                    phy::Workspace& ws,
                                    UplinkRunResult& out) const {
  const double fs = config_.sample_rate;
  const double f = cfg.carrier_hz;
  dsp::Arena& arena = ws.arena();
  const auto frame = arena.frame();

  // On-air switch stream for [uplink preamble + data] under the scenario's
  // modulation scheme.
  auto sw = arena.alloc<phy::SwitchState>(
      phy::scheme_waveform_length(cfg.scheme, data_bits.size(), cfg.bitrate, fs));
  {
    const obs::ScopedTimer timer(t_switch_);
    phy::scheme_waveform_into(cfg.scheme, data_bits, cfg.bitrate, fs, sw, arena);
  }

  require(uplink_timing_ok(cfg, sw.size(), fs),
          "LinkSimulator: node_start_s and tail_s must be finite and "
          "non-negative, and the capture shorter than 2^53 samples");
  const double packet_s = static_cast<double>(sw.size()) / fs;
  const double total_s = cfg.node_start_s + packet_s + cfg.tail_s;

  // Projector CW envelope (amplitude = pressure at 1 m).
  auto tx_samples =
      arena.alloc<dsp::cplx>(Projector::cw_envelope_length(total_s, fs));
  {
    const obs::ScopedTimer timer(t_cw_);
    projector.cw_envelope_into(f, fs, /*lead_silence_s=*/0.0, tx_samples);
  }
  const dsp::CplxView tx(tx_samples, fs, f);

  // Propagate to the node and the hydrophone (memoized tap sets).
  const auto& taps_pn = taps(placement_.projector, placement_.node, f);
  const auto& taps_ph = taps(placement_.projector, placement_.hydrophone, f);
  const auto& taps_nh = taps(placement_.node, placement_.hydrophone, f);
  const auto propagate = [&](const dsp::CplxView& in,
                             const std::vector<channel::PathTap>& path) {
    const obs::ScopedTimer timer(t_taps_);
    return channel::apply_taps_baseband(in, path, arena);
  };

  const dsp::CplxView at_node = propagate(tx, taps_pn);
  const dsp::CplxView direct = propagate(tx, taps_ph);

  const dsp::cplx g_refl = states.g_reflective;
  const dsp::cplx g_abs = states.g_absorptive;

  const auto start_i = static_cast<std::size_t>(cfg.node_start_s * fs);
  auto scattered_samples = arena.alloc<dsp::cplx>(at_node.size());
  {
    const obs::ScopedTimer timer(t_scatter_);
    for (std::size_t i = 0; i < at_node.size(); ++i) {
      dsp::cplx g = g_abs;  // idle switch open = absorptive/matched state
      if (i >= start_i && i - start_i < sw.size() &&
          sw[i - start_i] == phy::SwitchState::kReflective) {
        g = g_refl;
      }
      scattered_samples[i] = at_node[i] * g;
    }
  }
  const dsp::CplxView backscatter =
      propagate(dsp::CplxView(scattered_samples, fs, f), taps_nh);

  // Hydrophone: passband voltage with ambient noise.
  const std::size_t n = std::max(direct.size(), backscatter.size());
  const double sens = config_.hydrophone.volts_per_pascal();
  const double noise_sd = config_.noise.sample_stddev_pa(fs);
  // Recording-clock offset (paper footnote 12): in the recorder's time base
  // the carrier appears shifted by f * ppm * 1e-6.  For the short captures
  // here the accompanying timing drift (microseconds) is negligible against
  // chip durations, so the offset is applied as a pure carrier shift.
  const double skew = 1.0 + config_.receiver_clock_offset_ppm * 1e-6;
  const double w = kTwoPi * f * skew / fs;
  // Split into three passes so the upconversion runs through the dispatched
  // mixer and the noise is drawn in bulk: combine the baseband components,
  // mix to passband, then add noise and the sensitivity scale.  Per-element
  // arithmetic, evaluation order, and the RNG draw sequence all match the
  // fused reference loop, so the scalar table stays bit-identical.
  auto combined = arena.alloc<dsp::cplx>(n);
  auto carrier = arena.alloc<double>(n);
  {
    const obs::ScopedTimer timer(t_upconvert_);
    for (std::size_t i = 0; i < n; ++i) {
      dsp::cplx env{};
      if (i < direct.size()) env += direct[i];
      if (i < backscatter.size()) env += backscatter[i];
      combined[i] = env;
    }
    dsp::simd::mix_up(combined, w, carrier);
  }
  {
    const obs::ScopedTimer timer(t_noise_);
    out.hydrophone_v.sample_rate = fs;
    auto& v = out.hydrophone_v.samples;
    v.resize(n);  // reuses capacity in steady state
    rng.gaussian_into(v, 0.0, noise_sd);
    for (std::size_t i = 0; i < n; ++i) {
      const double pressure = carrier[i] + v[i];
      v[i] = sens * pressure;
    }
  }

  out.sent_bits.assign(data_bits.begin(), data_bits.end());
  out.incident_pressure_pa =
      projector.pressure_at_1m(f) * channel::coherent_gain(taps_pn, f);
  out.direct_pressure_pa =
      projector.pressure_at_1m(f) * channel::coherent_gain(taps_ph, f);
  out.modulation_pressure_pa = out.incident_pressure_pa *
                               std::abs(g_refl - g_abs) *
                               channel::coherent_gain(taps_nh, f);
}

UplinkRunResult LinkSimulator::run_uplink(const Projector& projector,
                                          const circuit::RectoPiezo& front_end,
                                          std::span<const std::uint8_t> data_bits,
                                          const sim::Waveform& cfg,
                                          pab::Rng& rng) const {
  phy::Workspace ws;
  UplinkRunResult result;
  run_uplink_into(projector, waveform_states(front_end, cfg), data_bits, cfg,
                  rng, ws, result);
  return result;
}

pab::Expected<bool> LinkSimulator::run_and_decode_into(
    const Projector& projector, const ModulationStates& states,
    std::span<const std::uint8_t> data_bits, const sim::Waveform& cfg,
    pab::Rng& rng, phy::Workspace& ws, DecodedRun& out) const {
  {
    const obs::ScopedTimer timer(t_uplink_run_);
    run_uplink_into(projector, states, data_bits, cfg, rng, ws, out.run);
  }
  phy::SchemeConfig sc;
  sc.scheme = cfg.scheme;
  sc.demod.carrier_hz = cfg.carrier_hz;
  sc.demod.bitrate = cfg.bitrate;
  sc.demod.sample_rate = config_.sample_rate;
  sc.demod.metrics = metrics_;
  const obs::ScopedTimer timer(t_decode_);
  const phy::SchemeDemodulator& demod = ws.scheme_demodulator(sc);
  return demod.demodulate_into(out.run.hydrophone_v.samples,
                               out.run.hydrophone_v.sample_rate,
                               data_bits.size(), ws.arena(), out.demod);
}

pab::Expected<LinkSimulator::DecodedRun> LinkSimulator::run_and_decode(
    const Projector& projector, const circuit::RectoPiezo& front_end,
    std::span<const std::uint8_t> data_bits, const sim::Waveform& cfg,
    pab::Rng& rng) const {
  phy::Workspace ws;
  DecodedRun out;
  const auto ok = run_and_decode_into(projector, waveform_states(front_end, cfg),
                                      data_bits, cfg, rng, ws, out);
  if (!ok.ok()) return ok.error();
  return out;
}

std::vector<std::uint8_t> LinkSimulator::downlink_sliced_envelope(
    const Projector& projector, const phy::DownlinkQuery& query,
    const phy::PwmParams& pwm, double freq_hz) const {
  const double fs = config_.sample_rate;
  const dsp::BasebandSignal tx =
      projector.query_envelope(query, pwm, freq_hz, fs, /*post_cw_s=*/0.0);
  const auto& taps_pn = taps(placement_.projector, placement_.node, freq_hz);
  const dsp::BasebandSignal at_node = channel::apply_taps_baseband(tx, taps_pn);

  // The node's detector: rectified envelope of the piezo voltage through an
  // RC, then the Schmitt trigger.  Envelope magnitude is proportional to the
  // incident pressure; the RC shapes the edges.
  std::vector<double> mag(at_node.size());
  dsp::simd::magnitude(at_node.samples, mag);
  const auto env = dsp::envelope_rc(mag, fs, /*tau_s=*/0.25e-3);
  return dsp::schmitt_slice(env);
}

}  // namespace pab::core
