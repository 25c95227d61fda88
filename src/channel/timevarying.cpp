#include "channel/timevarying.hpp"

#include <algorithm>
#include <cmath>

#include "channel/water.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::channel {

dsp::cplx sample_at(std::span<const dsp::cplx> x, double pos) {
  if (pos < 0.0) return {};
  const auto i = static_cast<std::size_t>(pos);
  if (i >= x.size()) return {};
  const double frac = pos - static_cast<double>(i);
  // The last interval interpolates against implicit zero-padding: x[i] is
  // valid for every pos < size, including [size-1, size).
  const dsp::cplx next = i + 1 < x.size() ? x[i + 1] : dsp::cplx{};
  return x[i] * (1.0 - frac) + next * frac;
}

Vec3 moving_position_at(const MovingPathConfig& cfg, double t) {
  return {cfg.rx_start.x + cfg.rx_velocity.x * t,
          cfg.rx_start.y + cfg.rx_velocity.y * t,
          cfg.rx_start.z + cfg.rx_velocity.z * t};
}

double moving_path_gain_at(const MovingPathConfig& cfg, double carrier_hz,
                           double t) {
  const double d =
      std::max(distance(cfg.source, moving_position_at(cfg, t)), 1e-3);
  return path_amplitude_gain(d, carrier_hz);
}

double doppler_shift_at(const MovingPathConfig& cfg, double carrier_hz,
                        double t) {
  const double c = sound_speed_mackenzie(cfg.water);
  const Vec3 rx = moving_position_at(cfg, t);
  const Vec3 r = rx - cfg.source;
  const double d = std::max(distance(cfg.source, rx), 1e-9);
  // Radial velocity (positive = receding).
  const double v_r = (r.x * cfg.rx_velocity.x + r.y * cfg.rx_velocity.y +
                      r.z * cfg.rx_velocity.z) / d;
  return -v_r / c * carrier_hz;
}

dsp::BasebandSignal propagate_moving(const dsp::BasebandSignal& x,
                                     const MovingPathConfig& cfg) {
  require(x.sample_rate > 0.0, "propagate_moving: sample rate unset");
  const double c = sound_speed_mackenzie(cfg.water);
  const double fs = x.sample_rate;

  dsp::BasebandSignal y;
  y.sample_rate = fs;
  y.carrier_hz = x.carrier_hz;
  y.samples.resize(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double t = static_cast<double>(n) / fs;
    const double d =
        std::max(distance(cfg.source, moving_position_at(cfg, t)), 1e-3);
    const double tau = d / c;
    const double gain = path_amplitude_gain(d, x.carrier_hz);
    const double phase = -kTwoPi * x.carrier_hz * tau;
    y.samples[n] = gain * dsp::cplx(std::cos(phase), std::sin(phase)) *
                   sample_at(x.samples, (t - tau) * fs);
  }
  return y;
}

double wavy_gain_at(const WavySurfaceConfig& cfg, double carrier_hz,
                    double phase) {
  const double c = sound_speed_mackenzie(cfg.water);
  const double d_direct = std::max(distance(cfg.source, cfg.receiver), 1e-3);
  const double g_direct = path_amplitude_gain(d_direct, carrier_hz);
  const double zs =
      cfg.surface_z + cfg.wave_amplitude * std::sin(kTwoPi * phase);
  const Vec3 image{cfg.source.x, cfg.source.y, 2.0 * zs - cfg.source.z};
  const double d_img = std::max(distance(image, cfg.receiver), 1e-3);
  const double g_img =
      cfg.surface_reflection * path_amplitude_gain(d_img, carrier_hz);
  const dsp::cplx sum =
      g_direct +
      g_img * std::exp(dsp::cplx(0.0, -kTwoPi * carrier_hz * (d_img - d_direct) / c));
  return std::abs(sum);
}

dsp::BasebandSignal propagate_wavy(const dsp::BasebandSignal& x,
                                   const WavySurfaceConfig& cfg) {
  require(x.sample_rate > 0.0, "propagate_wavy: sample rate unset");
  require(cfg.source.z < cfg.surface_z && cfg.receiver.z < cfg.surface_z,
          "propagate_wavy: endpoints must be below the surface");
  const double c = sound_speed_mackenzie(cfg.water);
  const double fs = x.sample_rate;
  const double d_direct = std::max(distance(cfg.source, cfg.receiver), 1e-3);
  const double tau_direct = d_direct / c;
  const double g_direct = path_amplitude_gain(d_direct, x.carrier_hz);

  dsp::BasebandSignal y;
  y.sample_rate = fs;
  y.carrier_hz = x.carrier_hz;
  y.samples.resize(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double t = static_cast<double>(n) / fs;
    const double zs = cfg.surface_z +
                      cfg.wave_amplitude * std::sin(kTwoPi * cfg.wave_freq_hz * t);
    // Image of the source in the instantaneous surface.
    const Vec3 image{cfg.source.x, cfg.source.y, 2.0 * zs - cfg.source.z};
    const double d_img = std::max(distance(image, cfg.receiver), 1e-3);
    const double tau_img = d_img / c;
    const double g_img =
        cfg.surface_reflection * path_amplitude_gain(d_img, x.carrier_hz);

    const double ph_d = -kTwoPi * x.carrier_hz * tau_direct;
    const double ph_i = -kTwoPi * x.carrier_hz * tau_img;
    y.samples[n] =
        g_direct * dsp::cplx(std::cos(ph_d), std::sin(ph_d)) *
            sample_at(x.samples, (t - tau_direct) * fs) +
        g_img * dsp::cplx(std::cos(ph_i), std::sin(ph_i)) *
            sample_at(x.samples, (t - tau_img) * fs);
  }
  return y;
}

double fade_depth_db(const WavySurfaceConfig& cfg, double carrier_hz) {
  double lo = 1e300, hi = 0.0;
  for (double phase = 0.0; phase < 1.0; phase += 0.005) {
    const double g = wavy_gain_at(cfg, carrier_hz, phase);
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  if (lo <= 0.0) return 120.0;
  return db_from_amplitude_ratio(hi / lo);
}

}  // namespace pab::channel
