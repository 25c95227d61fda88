#include "dsp/envelope.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pab::dsp {

std::vector<double> envelope_rc(std::span<const double> x, double sample_rate,
                                double tau_s) {
  require(sample_rate > 0.0, "envelope_rc: sample rate must be positive");
  require(tau_s > 0.0, "envelope_rc: time constant must be positive");
  const double alpha = std::exp(-1.0 / (tau_s * sample_rate));
  std::vector<double> env(x.size());
  double y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double rect = std::abs(x[i]);
    // Diode detector: charge fast on rising input, discharge through RC.
    y = rect > y ? rect : alpha * y + (1.0 - alpha) * rect;
    env[i] = y;
  }
  return env;
}

std::vector<std::uint8_t> schmitt_slice(std::span<const double> envelope,
                                        double high_fraction, double low_fraction) {
  require(high_fraction > low_fraction, "schmitt_slice: thresholds inverted");
  std::vector<std::uint8_t> out(envelope.size(), 0);
  if (envelope.empty()) return out;
  const double peak = *std::max_element(envelope.begin(), envelope.end());
  if (peak <= 0.0) return out;
  const double hi = high_fraction * peak;
  const double lo = low_fraction * peak;
  std::uint8_t level = 0;
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    if (level == 0 && envelope[i] >= hi) level = 1;
    else if (level == 1 && envelope[i] <= lo) level = 0;
    out[i] = level;
  }
  return out;
}

}  // namespace pab::dsp
