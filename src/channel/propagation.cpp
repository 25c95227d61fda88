#include "channel/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/fftconv.hpp"
#include "dsp/resample.hpp"
#include "util/units.hpp"
#include "util/error.hpp"

namespace pab::channel {

namespace {

// Dense impulse-response length for the tap set: every tap lands on
// floor(delay) and floor(delay)+1 (linear interpolation), so the response
// spans [0, max integer delay + 1].
std::size_t dense_impulse_length(double sample_rate,
                                 const std::vector<PathTap>& taps) {
  std::size_t max_d = 0;
  for (const PathTap& t : taps) {
    max_d = std::max(max_d, static_cast<std::size_t>(
                                std::floor(t.delay_s * sample_rate)));
  }
  return max_d + 2;
}

// FFT fast path: render the sparse taps (with their carrier phase rotations)
// as a dense impulse response in arena scratch and run one overlap-save
// convolution.  The full linear convolution length n + dense - 1 equals
// apply_taps_length exactly, so `y` is written in its entirety (no zero-fill
// needed).  Returns false (leaving `y` untouched) when the cost model says
// the direct accumulation loop is cheaper.
bool try_fft_taps_baseband(std::span<const dsp::cplx> x, double sample_rate,
                           double carrier_hz, const std::vector<PathTap>& taps,
                           std::span<dsp::cplx> y, dsp::Arena& arena) {
  if (taps.empty()) return false;
  const std::size_t dense = dense_impulse_length(sample_rate, taps);
  if (!dsp::fftconv_use_for_taps(taps.size(), x.size(), dense)) return false;
  const auto frame = arena.frame();
  auto h = arena.alloc_zero<dsp::cplx>(dense);
  for (const PathTap& t : taps) {
    const double phase = -pab::kTwoPi * carrier_hz * t.delay_s;
    const dsp::cplx gain = t.gain * dsp::cplx(std::cos(phase), std::sin(phase));
    const double d = t.delay_s * sample_rate;
    const auto int_delay = static_cast<std::size_t>(std::floor(d));
    const double frac = d - static_cast<double>(int_delay);
    h[int_delay] += gain * (1.0 - frac);
    h[int_delay + 1] += gain * frac;
  }
  dsp::fftconv_full(h, x, y, arena);
  return true;
}

}  // namespace

dsp::BasebandSignal apply_taps_baseband(const dsp::BasebandSignal& x,
                                        const std::vector<PathTap>& taps) {
  require(x.sample_rate > 0.0, "apply_taps_baseband: sample rate unset");
  dsp::BasebandSignal y;
  y.sample_rate = x.sample_rate;
  y.carrier_hz = x.carrier_hz;
  y.samples.resize(apply_taps_length(x.size(), x.sample_rate, taps));
  if (!taps.empty()) {
    dsp::Arena arena;
    apply_taps_baseband_into(x.samples, x.sample_rate, x.carrier_hz, taps,
                             y.samples, arena);
  }
  return y;
}

std::size_t apply_taps_length(std::size_t n, double sample_rate,
                              const std::vector<PathTap>& taps) {
  require(sample_rate > 0.0, "apply_taps_length: sample rate unset");
  std::size_t len = 0;
  for (const PathTap& t : taps) {
    const auto int_delay =
        static_cast<std::size_t>(std::floor(t.delay_s * sample_rate));
    len = std::max(len, n + int_delay + 1);
  }
  return len;
}

void apply_taps_baseband_into(std::span<const dsp::cplx> x, double sample_rate,
                              double carrier_hz, const std::vector<PathTap>& taps,
                              std::span<dsp::cplx> y, dsp::Arena& scratch) {
  require(y.size() == apply_taps_length(x.size(), sample_rate, taps),
          "apply_taps_baseband_into: output size mismatch");
  if (try_fft_taps_baseband(x, sample_rate, carrier_hz, taps, y, scratch))
    return;
  std::fill(y.begin(), y.end(), dsp::cplx{});
  for (const PathTap& t : taps) {
    const double phase = -pab::kTwoPi * carrier_hz * t.delay_s;
    const dsp::cplx gain = t.gain * dsp::cplx(std::cos(phase), std::sin(phase));
    dsp::add_delayed_scaled_into(y, x, t.delay_s * sample_rate, gain);
  }
}

dsp::CplxView apply_taps_baseband(dsp::CplxView x,
                                  const std::vector<PathTap>& taps,
                                  dsp::Arena& arena) {
  auto out = arena.alloc<dsp::cplx>(
      apply_taps_length(x.size(), x.sample_rate, taps));
  apply_taps_baseband_into(x.samples, x.sample_rate, x.carrier_hz, taps, out,
                           arena);
  return dsp::CplxView(out, x.sample_rate, x.carrier_hz);
}

}  // namespace pab::channel
