#include "dsp/resample.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::dsp {

namespace {

template <typename T, typename G>
void add_delayed_scaled_into_impl(std::span<T> acc, std::span<const T> y,
                                  double delay_samples, G gain) {
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
    const G g0 = gain * (1.0 - frac);
    simd::axpy(g0, y, acc.subspan(int_delay));
    if (frac > 0.0) {
      const G g1 = gain * frac;
      simd::axpy(g1, y, acc.subspan(int_delay + 1));
    }
    return;
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    acc[i + int_delay] += gain * y[i] * (1.0 - frac);
    acc[i + int_delay + 1] += gain * y[i] * frac;
  }
}

template <typename T, typename G>
void add_delayed_scaled_impl(std::vector<T>& acc, std::span<const T> y,
                             double delay_samples, G gain) {
  require(delay_samples >= 0.0, "add_delayed_scaled: negative delay");
  const auto int_delay = static_cast<std::size_t>(std::floor(delay_samples));
  const std::size_t needed = y.size() + int_delay + 1;
  if (acc.size() < needed) acc.resize(needed, T{});
  add_delayed_scaled_into_impl<T, G>(acc, y, delay_samples, gain);
}

}  // namespace

void add_delayed_scaled(std::vector<double>& acc, std::span<const double> y,
                        double delay_samples, double gain) {
  add_delayed_scaled_impl(acc, y, delay_samples, gain);
}

void add_delayed_scaled(std::vector<cplx>& acc, std::span<const cplx> y,
                        double delay_samples, cplx gain) {
  add_delayed_scaled_impl(acc, y, delay_samples, gain);
}

void add_delayed_scaled_into(std::span<double> acc, std::span<const double> y,
                             double delay_samples, double gain) {
  add_delayed_scaled_into_impl(acc, y, delay_samples, gain);
}

void add_delayed_scaled_into(std::span<cplx> acc, std::span<const cplx> y,
                             double delay_samples, cplx gain) {
  add_delayed_scaled_into_impl(acc, y, delay_samples, gain);
}

}  // namespace pab::dsp
