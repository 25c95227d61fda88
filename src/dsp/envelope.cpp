#include "dsp/envelope.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pab::dsp {

void envelope_rc_into(std::span<const double> x, double sample_rate,
                      double tau_s, std::span<double> out) {
  require(sample_rate > 0.0, "envelope_rc: sample rate must be positive");
  require(tau_s > 0.0, "envelope_rc: time constant must be positive");
  require(out.size() == x.size(), "envelope_rc_into: size mismatch");
  const double alpha = std::exp(-1.0 / (tau_s * sample_rate));
  double y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double rect = std::abs(x[i]);
    // Diode detector: charge fast on rising input, discharge through RC.
    y = rect > y ? rect : alpha * y + (1.0 - alpha) * rect;
    out[i] = y;
  }
}

std::vector<double> envelope_rc(std::span<const double> x, double sample_rate,
                                double tau_s) {
  std::vector<double> env(x.size());
  envelope_rc_into(x, sample_rate, tau_s, env);
  return env;
}

void schmitt_slice_into(std::span<const double> envelope, double high_fraction,
                        double low_fraction, std::span<std::uint8_t> out) {
  require(high_fraction > low_fraction, "schmitt_slice: thresholds inverted");
  require(out.size() == envelope.size(), "schmitt_slice_into: size mismatch");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  if (envelope.empty()) return;
  const double peak = *std::max_element(envelope.begin(), envelope.end());
  if (peak <= 0.0) return;
  const double hi = high_fraction * peak;
  const double lo = low_fraction * peak;
  std::uint8_t level = 0;
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    if (level == 0 && envelope[i] >= hi) level = 1;
    else if (level == 1 && envelope[i] <= lo) level = 0;
    out[i] = level;
  }
}

std::vector<std::uint8_t> schmitt_slice(std::span<const double> envelope,
                                        double high_fraction, double low_fraction) {
  std::vector<std::uint8_t> out(envelope.size(), 0);
  schmitt_slice_into(envelope, high_fraction, low_fraction, out);
  return out;
}

}  // namespace pab::dsp
