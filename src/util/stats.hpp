// Small statistics helpers used by metrology code and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pab {

[[nodiscard]] inline double mean(std::span<const double> xs) {
  require(!xs.empty(), "mean: empty input");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

[[nodiscard]] inline double variance(std::span<const double> xs) {
  require(xs.size() >= 2, "variance: need at least two samples");
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

[[nodiscard]] inline double stddev(std::span<const double> xs) {
  return std::sqrt(variance(xs));
}

// Neumaier-compensated accumulator: the running sum stays exact to ~1 ulp of
// the final value over arbitrarily long streams.  Used for simulated-time and
// airtime sums, where a plain `+=` across millions of events drifts by many
// orders of magnitude more (see the scheduler drift regression in
// tests/test_mac.cpp).  Deterministic: the result depends only on the value
// sequence, never on threading or platform.
class NeumaierSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x))
      comp_ += (sum_ - t) + x;
    else
      comp_ += (x - t) + sum_;
    sum_ = t;
  }
  [[nodiscard]] double value() const { return sum_ + comp_; }
  void reset() {
    sum_ = 0.0;
    comp_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;  // accumulated low-order bits lost by sum_
};

// Median (copies; inputs in benches are small).
[[nodiscard]] inline double median(std::span<const double> xs) {
  require(!xs.empty(), "median: empty input");
  std::vector<double> v(xs.begin(), xs.end());
  const auto mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace pab
