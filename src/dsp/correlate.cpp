#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::dsp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Unit roundoff of a double.
constexpr double kU = std::numeric_limits<double>::epsilon() / 2.0;
// Starts whose fast |r| lies within this margin of the fast maximum (widened
// by each window's rounding bound) are re-scored exactly.  It also absorbs
// the second-order (u^2) terms of the compensated sums.
constexpr double kPeakMargin = 1e-9;
// Outside these bounds a fast score is not trusted: the exact formula cuts
// off at var <= 1e-300, and var * t_var must stay clear of overflow.
constexpr double kMinTrustedVar = 1e-290;
constexpr double kMaxTrustedVarProduct = 1e300;

// Knuth's TwoSum: s + e == a + b exactly.
struct TwoSum {
  double s;
  double e;
};
TwoSum two_sum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

// The exact per-window score: statistics computed fresh per window, centered
// on the window mean, through the dispatched kernels.  With x centered,
// sum(xc) = 0, so the template's mean term drops out of the covariance.
double exact_score(std::span<const double> window, std::span<const double> t,
                   double t_var) {
  const auto n = static_cast<double>(t.size());
  const double x_mean = simd::sum(window) / n;
  const auto [cov, x_var] = simd::centered_cov_var(window, t, x_mean);
  return x_var > 1e-300 ? cov / std::sqrt(x_var * t_var) : 0.0;
}

}  // namespace

std::size_t correlation_length(std::size_t nx, std::size_t nt) {
  if (nt == 0 || nx < nt) return 0;
  return nx - nt + 1;
}

CorrPeak pearson_peak(std::span<const double> x, std::span<const double> t,
                      std::size_t n_windows, Arena& scratch) {
  require(t.size() >= 2, "pearson_peak: template too short");
  require(n_windows <= correlation_length(x.size(), t.size()),
          "pearson_peak: more windows than the signal holds");
  CorrPeak peak;
  if (n_windows == 0) return peak;
  const std::size_t m = t.size();
  const auto n = static_cast<double>(m);

  double t_sum = 0.0, t_sq = 0.0;
  for (double v : t) { t_sum += v; t_sq += v * v; }
  const double t_var = t_sq - t_sum * t_sum / n;
  if (t_var <= 0.0) {  // every score is 0, so the first start wins
    peak.corr = 0.0;
    return peak;
  }
  const auto frame = scratch.frame();

  // The template as jumps: with S_k(b) = sum_{i<b} x[k+i], the window's dot
  // product with t is sum_j g_j * S_k(b_j) over a jump g_j = t[b-1] - t[b]
  // at every b where t changes value, plus g = t[m-1] at b = m.
  std::size_t n_jumps = 1;
  for (std::size_t i = 1; i < m; ++i) n_jumps += t[i] != t[i - 1] ? 1 : 0;
  auto jump_at = scratch.alloc<std::size_t>(n_jumps);
  auto jump_g = scratch.alloc<double>(n_jumps);
  double g_abs = 0.0;
  TwoSum t_total{0.0, 0.0};  // compensated sum of t
  for (std::size_t i = 0, j = 0; i < m; ++i) {
    const TwoSum s = two_sum(t_total.s, t[i]);
    t_total = {s.s, t_total.e + s.e};
    if (i + 1 < m && t[i + 1] == t[i]) continue;
    jump_at[j] = i + 1;
    jump_g[j] = i + 1 < m ? t[i] - t[i + 1] : t[i];
    g_abs += std::abs(jump_g[j]);
    ++j;
  }
  const double t_total_sum = t_total.s + t_total.e;

  // Prefix sums of d = x - c and d^2 over the span the windows read, kept as
  // hi + lo pairs (TwoSum, and an FMA for the square's rounding error), so a
  // difference of two prefixes is as accurate as a fresh window sum.
  // Centering on the span mean c keeps the prefixes small.
  const std::size_t span = n_windows + m - 1;
  double c = 0.0;
  for (std::size_t i = 0; i < span; ++i) c += x[i];
  c /= static_cast<double>(span);
  auto h1 = scratch.alloc<double>(span + 1);
  auto l1 = scratch.alloc<double>(span + 1);
  auto h2 = scratch.alloc<double>(span + 1);
  auto l2 = scratch.alloc<double>(span + 1);
  {
    double s1 = 0.0, e1 = 0.0, s2 = 0.0, e2 = 0.0;
    h1[0] = l1[0] = h2[0] = l2[0] = 0.0;
    for (std::size_t i = 0; i < span; ++i) {
      const double d = x[i] - c;
      const double sq = d * d;
      const TwoSum a = two_sum(s1, d);
      const TwoSum b = two_sum(s2, sq);
      s1 = a.s;
      e1 += a.e;
      s2 = b.s;
      e2 += b.e + std::fma(d, d, -sq);
      h1[i + 1] = s1;
      l1[i + 1] = e1;
      h2[i + 1] = s2;
      l2[i + 1] = e2;
    }
  }

  // sum_i d[k+i] * t[i] for every start: one contiguous pass per jump.
  auto dot = scratch.alloc_zero<double>(n_windows);
  {
    double* acc = dot.data();
    const double* ph = h1.data();
    const double* pl = l1.data();
    for (std::size_t j = 0; j < n_jumps; ++j) {
      const double g = jump_g[j];
      const double* qh = ph + jump_at[j];
      const double* ql = pl + jump_at[j];
      for (std::size_t k = 0; k < n_windows; ++k)
        acc[k] += g * ((qh[k] - ph[k]) + (ql[k] - pl[k]));
    }
  }

  // Fast |r| per start and a bound on its distance from the exact formula's
  // |r| (u = unit roundoff, R = n_jumps, G = sum |g_j|, den = sqrt(var t_var)):
  //  * the exact formula's own rounding: u (M sqrt(t_sq/t_var) + M/2);
  //  * its window-mean error e <= u sum|x| <= u (sqrt(M s2) + M |c|), which
  //    moves cov by e |sum t| and var by M e^2: e |sum t| / den + M e^2/2var;
  //  * the scan's rounding, amplified by the cancellation in s2 - s1^2/M:
  //    u s2/var (11 + sqrt(M/t_var) ((R + 4) G + 5 |t_mean|)).
  // Each is doubled.  A start whose bound reaches past every other start's
  // lower bound is re-scored exactly; so is every start whose fast score is
  // not trusted.  The first exact maximum is therefore always among them.
  const double t_mean = t_total_sum / n;
  const double fixed_err =
      0.5 * kPeakMargin +
      2.0 * kU * (n * (std::sqrt(t_sq / t_var) + 1.0) + 4.0);
  const double kappa =
      2.0 * kU *
      (16.0 + std::sqrt(n / t_var) *
                  ((static_cast<double>(n_jumps) + 4.0) * g_abs +
                   8.0 * std::abs(t_mean)));
  const double pedestal = n * std::abs(c);
  auto upper = scratch.alloc<double>(n_windows);
  double cut = -kInf;  // the largest lower bound
  for (std::size_t k = 0; k < n_windows; ++k) {
    const double s1 = (h1[k + m] - h1[k]) + (l1[k + m] - l1[k]);
    const double s2 = (h2[k + m] - h2[k]) + (l2[k + m] - l2[k]);
    const double var = s2 - s1 * s1 / n;
    const double den = std::sqrt(var * t_var);
    const double a = std::abs((dot[k] - s1 * t_mean) / den);
    const double mean_err = kU * (std::sqrt(n * s2) + pedestal);
    const double err =
        fixed_err + kappa * (s2 / var) +
        mean_err * (2.0 * std::abs(t_total_sum) / den + n * mean_err / var);
    // False for NaN and for a bound too wide to compare.
    const bool trusted = var > kMinTrustedVar &&
                         var * t_var < kMaxTrustedVarProduct && a + err < 2.0;
    upper[k] = trusted ? a + err : kInf;
    if (trusted) cut = std::max(cut, a - err);
  }

  // Exact re-score; the first strictly greater |r| wins, as in a full scan.
  for (std::size_t k = 0; k < n_windows; ++k) {
    if (upper[k] < cut) continue;
    ++peak.rescored;
    const double score = std::abs(exact_score(x.subspan(k, m), t, t_var));
    if (score > peak.corr) {
      peak.corr = score;
      peak.index = k;
    }
  }
  return peak;
}

}  // namespace pab::dsp
