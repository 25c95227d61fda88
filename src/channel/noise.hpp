// Ambient acoustic noise models.
//
// Open-water noise follows a simplified Wenz model (shipping + wind + thermal
// components); enclosed test tanks use a flat spectral level dominated by
// facility noise.  Either way the simulator needs the noise standard
// deviation per passband sample at a given sample rate.
#pragma once

namespace pab::channel {

struct NoiseModel {
  // Power spectral density level [dB re 1 uPa^2/Hz], flat across the band.
  double psd_db_re_upa = 45.0;

  // RMS pressure [Pa] of noise within `bandwidth_hz`.
  [[nodiscard]] double rms_pressure_pa(double bandwidth_hz) const;

  // Standard deviation of per-sample passband noise when sampling at
  // `sample_rate` (noise band = Nyquist).
  [[nodiscard]] double sample_stddev_pa(double sample_rate) const;
};

// Simplified Wenz ambient noise PSD [dB re uPa^2/Hz] at `freq_hz` for given
// shipping activity (0..1) and wind speed [m/s].  Valid ~100 Hz - 100 kHz.
[[nodiscard]] double wenz_noise_psd_db(double freq_hz, double shipping = 0.5,
                                       double wind_speed_ms = 5.0);

// Noise model matching the paper's quiet indoor tank facility.
[[nodiscard]] NoiseModel tank_noise();

// Open-water noise model at `freq_hz` via the Wenz curves.
[[nodiscard]] NoiseModel sea_noise(double freq_hz, double shipping = 0.5,
                                   double wind_speed_ms = 5.0);

}  // namespace pab::channel
