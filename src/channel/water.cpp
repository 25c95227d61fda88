#include "channel/water.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::channel {

double sound_speed_mackenzie(const WaterProperties& w) {
  const double t = w.temperature_c;
  const double s = w.salinity_ppt;
  const double d = w.depth_m;
  return 1448.96 + 4.591 * t - 5.304e-2 * t * t + 2.374e-4 * t * t * t +
         1.340 * (s - 35.0) + 1.630e-2 * d + 1.675e-7 * d * d -
         1.025e-2 * t * (s - 35.0) - 7.139e-13 * t * d * d * d;
}

double thorp_absorption_db_per_km(double freq_hz) {
  require(freq_hz > 0.0, "thorp: frequency must be positive");
  const double f = freq_hz / 1000.0;  // kHz
  const double f2 = f * f;
  return 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003;
}

double transmission_loss_db(double distance_m, double freq_hz) {
  require(distance_m > 0.0, "transmission_loss: distance must be positive");
  const double spreading = 20.0 * std::log10(std::max(distance_m, 1e-3));
  const double absorption = thorp_absorption_db_per_km(freq_hz) * distance_m / 1000.0;
  return spreading + absorption;
}

double path_amplitude_gain(double distance_m, double freq_hz) {
  return amplitude_ratio_from_db(-transmission_loss_db(distance_m, freq_hz));
}

}  // namespace pab::channel
