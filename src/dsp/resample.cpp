#include "dsp/resample.hpp"

#include <cmath>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::dsp {

void add_delayed_scaled_into(std::span<cplx> acc, std::span<const cplx> y,
                             double delay_samples, cplx gain) {
  require(delay_samples >= 0.0, "add_delayed_scaled: negative delay");
  const auto int_delay = static_cast<std::size_t>(std::floor(delay_samples));
  const double frac = delay_samples - static_cast<double>(int_delay);
  require(acc.size() >= y.size() + int_delay + 1,
          "add_delayed_scaled_into: accumulator too small");
  if (simd::enabled()) {
    // Vector path: the two fractional-interpolation halves become a pair of
    // dispatched axpys with pre-multiplied gains.  Tolerance path (the gain
    // pre-multiply and separated passes round differently from the
    // interleaved reference below).
    const cplx g0 = gain * (1.0 - frac);
    simd::axpy(g0, y, acc.subspan(int_delay));
    if (frac > 0.0) {
      const cplx g1 = gain * frac;
      simd::axpy(g1, y, acc.subspan(int_delay + 1));
    }
    return;
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    acc[i + int_delay] += gain * y[i] * (1.0 - frac);
    acc[i + int_delay + 1] += gain * y[i] * frac;
  }
}

}  // namespace pab::dsp
