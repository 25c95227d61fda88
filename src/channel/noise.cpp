#include "channel/noise.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::channel {

double NoiseModel::rms_pressure_pa(double bandwidth_hz) const {
  require(bandwidth_hz > 0.0, "NoiseModel: bandwidth must be positive");
  const double level_db = psd_db_re_upa + 10.0 * std::log10(bandwidth_hz);
  return pressure_pa_from_spl(level_db);
}

double NoiseModel::sample_stddev_pa(double sample_rate) const {
  return rms_pressure_pa(sample_rate / 2.0);
}

double wenz_noise_psd_db(double freq_hz, double shipping, double wind_speed_ms) {
  require(freq_hz > 0.0, "wenz: frequency must be positive");
  const double f_khz = freq_hz / 1000.0;
  // Standard four-component parameterization (e.g. Stojanovic 2007 Eq. 7).
  const double turbulence = 17.0 - 30.0 * std::log10(std::max(f_khz, 1e-3));
  const double ship = 40.0 + 20.0 * (shipping - 0.5) +
                      26.0 * std::log10(std::max(f_khz, 1e-3)) -
                      60.0 * std::log10(std::max(f_khz, 1e-3) + 0.03);
  const double wind = 50.0 + 7.5 * std::sqrt(std::max(wind_speed_ms, 0.0)) +
                      20.0 * std::log10(std::max(f_khz, 1e-3)) -
                      40.0 * std::log10(std::max(f_khz, 1e-3) + 0.4);
  const double thermal = -15.0 + 20.0 * std::log10(std::max(f_khz, 1e-3));

  const double total_power = power_ratio_from_db(turbulence) +
                             power_ratio_from_db(ship) +
                             power_ratio_from_db(wind) +
                             power_ratio_from_db(thermal);
  return db_from_power_ratio(total_power);
}

NoiseModel tank_noise() {
  return NoiseModel{45.0};
}

NoiseModel sea_noise(double freq_hz, double shipping, double wind_speed_ms) {
  return NoiseModel{wenz_noise_psd_db(freq_hz, shipping, wind_speed_ms)};
}

}  // namespace pab::channel
