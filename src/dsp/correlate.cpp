#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::dsp {

std::size_t correlation_length(std::size_t nx, std::size_t nt) {
  if (nt == 0 || nx < nt) return 0;
  return nx - nt + 1;
}

void pearson_correlation_into(std::span<const double> x,
                              std::span<const double> t, std::span<double> out) {
  require(t.size() >= 2, "pearson_correlation_into: template too short");
  require(out.size() == correlation_length(x.size(), t.size()),
          "pearson_correlation_into: output size mismatch");
  const auto n = static_cast<double>(t.size());

  double t_sum = 0.0, t_sq = 0.0;
  for (double v : t) { t_sum += v; t_sq += v * v; }
  const double t_var = t_sq - t_sum * t_sum / n;
  if (t_var <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  for (std::size_t k = 0; k < out.size(); ++k) {
    // Window statistics computed fresh per window, centered on the window
    // mean: cancellation-safe for small modulations on a large pedestal and
    // free of running-sum drift.  With x centered, sum(xc) = 0, so the
    // template's mean term drops out of the covariance.  Both passes run
    // through dsp::simd (scalar dispatch reproduces the original loops
    // bit-for-bit); this is the decode chain's hottest kernel.
    const auto window = x.subspan(k, t.size());
    const double x_mean = simd::sum(window) / n;
    const auto [cov, x_var] = simd::centered_cov_var(window, t, x_mean);
    out[k] = x_var > 1e-300 ? cov / std::sqrt(x_var * t_var) : 0.0;
  }
}

std::vector<double> pearson_correlation(std::span<const double> x,
                                        std::span<const double> t) {
  if (t.size() < 2 || x.size() < t.size()) return {};
  std::vector<double> out(x.size() - t.size() + 1);
  pearson_correlation_into(x, t, out);
  return out;
}

std::size_t argmax(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return static_cast<std::size_t>(
      std::distance(xs.begin(), std::max_element(xs.begin(), xs.end())));
}

}  // namespace pab::dsp
