// Test oracle for dsp::pearson_peak: a full sliding scan that scores every
// window start with the exact per-window Pearson formula, then keeps the first
// strictly greater |r| -- by definition what pearson_peak returns.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/simd.hpp"

namespace pab::testing {

// r(k) for every start k in [0, n_windows); requires |t| >= 2 and
// n_windows <= correlation_length(|x|, |t|).
inline std::vector<double> pearson_scan(std::span<const double> x,
                                        std::span<const double> t,
                                        std::size_t n_windows) {
  std::vector<double> out(n_windows, 0.0);
  const auto n = static_cast<double>(t.size());
  double t_sum = 0.0, t_sq = 0.0;
  for (double v : t) { t_sum += v; t_sq += v * v; }
  const double t_var = t_sq - t_sum * t_sum / n;
  if (t_var <= 0.0) return out;
  const auto score = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const auto window = x.subspan(k, t.size());
      const double x_mean = dsp::simd::sum(window) / n;
      const auto [cov, x_var] = dsp::simd::centered_cov_var(window, t, x_mean);
      out[k] = x_var > 1e-300 ? cov / std::sqrt(x_var * t_var) : 0.0;
    }
  };
  // Starts are independent: a long scan is split over 4 threads.
  const std::size_t n_threads =
      n_windows * t.size() > (std::size_t{1} << 22) ? 4 : 1;
  const std::size_t block = (n_windows + n_threads - 1) / n_threads;
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w < n_threads; ++w)
    workers.emplace_back(score, std::min(w * block, n_windows),
                         std::min((w + 1) * block, n_windows));
  score(0, std::min(block, n_windows));
  for (auto& worker : workers) worker.join();
  return out;
}

inline std::vector<double> pearson_scan(std::span<const double> x,
                                        std::span<const double> t) {
  return pearson_scan(x, t, dsp::correlation_length(x.size(), t.size()));
}

// The first start with the largest |r| (NaN never wins) and that |r|.
inline dsp::CorrPeak first_abs_max(std::span<const double> corr) {
  dsp::CorrPeak peak;
  for (std::size_t k = 0; k < corr.size(); ++k) {
    const double m = std::abs(corr[k]);
    if (m > peak.corr) {
      peak.corr = m;
      peak.index = k;
    }
  }
  return peak;
}

}  // namespace pab::testing
