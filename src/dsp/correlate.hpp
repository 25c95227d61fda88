// Preamble detection: the peak of a sliding Pearson correlation.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

#include "dsp/arena.hpp"

namespace pab::dsp {

// Valid-range correlation length: |x| - |t| + 1, or 0 when the template is
// empty or longer than the signal.
[[nodiscard]] std::size_t correlation_length(std::size_t nx, std::size_t nt);

// The first window start that maximises |r| and that |r|.
struct CorrPeak {
  std::size_t index = 0;
  // -inf when no start has a score to compare (n_windows == 0, or every
  // score is NaN).
  double corr = -std::numeric_limits<double>::infinity();
  // Starts scored with the exact per-window formula.
  std::size_t rescored = 0;
};

// Sliding Pearson correlation r(k) in [-1, 1] of the window x[k, k+|t|)
// against the template t: both are mean-removed and normalized, so r is
// immune to DC offsets and slow level shifts (e.g. the un-modulated carrier
// under a backscatter packet), which plain correlation is not.  r(k) is the
// exact per-window formula -- the window mean from simd::sum, then
// simd::centered_cov_var, r = cov / sqrt(var * t_var), and 0 when
// var <= 1e-300 or t_var <= 0 -- under the active dispatch.
//
// Returns the first k in [0, n_windows) that maximises |r(k)| and that
// |r(k)|, NaN scores never winning: bit for bit what scoring every start
// and keeping the first strictly greater |r| gives.  It scores every start
// from compensated prefix sums in O(|t| + n_windows * jumps), where jumps is
// the number of value changes in t (18 for the FM0 uplink preamble), then
// re-scores with the exact formula only the starts whose fast score could,
// within its rounding bound, be the maximum.
//
// Requires |t| >= 2 and n_windows <= correlation_length(|x|, |t|).  Its
// scratch comes from `scratch` and is released before it returns.
[[nodiscard]] CorrPeak pearson_peak(std::span<const double> x,
                                    std::span<const double> t,
                                    std::size_t n_windows, Arena& scratch);

}  // namespace pab::dsp
