// Correlation utilities for packet detection and timing recovery.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pab::dsp {

// Sliding Pearson correlation in [-1, 1]: both the window of `x` and the
// template are locally mean-removed and normalized.  Robust to DC offsets and
// slow level shifts (e.g. the un-modulated carrier under a backscatter
// packet), which plain correlation is not.
[[nodiscard]] std::vector<double> pearson_correlation(std::span<const double> x,
                                                      std::span<const double> t);

// Index of the maximum element; returns 0 for empty input.
[[nodiscard]] std::size_t argmax(std::span<const double> xs);

// ---- into-output kernels (allocation-free; wrapped by the above) ----

// Valid-range correlation length: |x| - |t| + 1, or 0 when the template is
// empty or longer than the signal (the wrappers return {} in that case).
[[nodiscard]] std::size_t correlation_length(std::size_t nx, std::size_t nt);

// Requires |t| >= 2 and out.size() == correlation_length(|x|, |t|); `out`
// must not alias `x` or `t`.
void pearson_correlation_into(std::span<const double> x,
                              std::span<const double> t, std::span<double> out);

}  // namespace pab::dsp
