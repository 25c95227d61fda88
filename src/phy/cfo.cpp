#include "phy/cfo.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::phy {

double estimate_cfo_hz(std::span<const std::complex<double>> segment,
                       double sample_rate) {
  require(segment.size() >= 2, "estimate_cfo: need at least two samples");
  require(sample_rate > 0.0, "estimate_cfo: sample rate must be positive");
  // Average of x[n+1] * conj(x[n]) accumulates the per-sample rotation;
  // its argument is 2 pi f / fs.
  std::complex<double> acc{};
  for (std::size_t i = 1; i < segment.size(); ++i)
    acc += segment[i] * std::conj(segment[i - 1]);
  if (std::abs(acc) < 1e-300) return 0.0;
  return std::arg(acc) * sample_rate / kTwoPi;
}

}  // namespace pab::phy
