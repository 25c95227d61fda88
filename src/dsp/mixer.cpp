#include "dsp/mixer.hpp"

#include <cmath>

#include "dsp/iir.hpp"
#include "dsp/simd.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {

Signal make_tone(double freq_hz, double amplitude, double duration_s,
                 double sample_rate, double phase) {
  require(sample_rate > 0.0, "make_tone: sample rate must be positive");
  require(duration_s >= 0.0, "make_tone: negative duration");
  const double w = kTwoPi * freq_hz / sample_rate;
  Signal s;
  s.sample_rate = sample_rate;
  s.samples.resize(static_cast<std::size_t>(duration_s * sample_rate));
  for (std::size_t i = 0; i < s.samples.size(); ++i)
    s.samples[i] = amplitude * std::sin(w * static_cast<double>(i) + phase);
  return s;
}

void downconvert_into(std::span<const double> x, double sample_rate,
                      double carrier_hz, std::span<cplx> out) {
  require(sample_rate > 0.0, "downconvert: sample rate unset");
  require(out.size() == x.size(), "downconvert_into: size mismatch");
  const double w = kTwoPi * carrier_hz / sample_rate;
  // Multiply by exp(-j w n); factor 2 recovers the baseband envelope
  // amplitude after low-pass filtering.
  simd::mix_down(x, w, out);
}

BasebandSignal downconvert(const Signal& x, double carrier_hz) {
  BasebandSignal y;
  y.sample_rate = x.sample_rate;
  y.carrier_hz = carrier_hz;
  y.samples.resize(x.size());
  downconvert_into(x.samples, x.sample_rate, carrier_hz, y.samples);
  return y;
}

BasebandSignal downconvert_filtered(const Signal& x, double carrier_hz,
                                    double lowpass_hz, int order,
                                    std::size_t decim) {
  require(decim >= 1, "downconvert_filtered: decim must be >= 1");
  BasebandSignal y = downconvert(x, carrier_hz);
  const BiquadCascade lp = butterworth_lowpass(order, lowpass_hz, y.sample_rate);
  auto filtered = lp.filter(std::span<const cplx>(y.samples));
  if (decim == 1) {
    y.samples = std::move(filtered);
    return y;
  }
  BasebandSignal out;
  out.carrier_hz = carrier_hz;
  out.sample_rate = y.sample_rate / static_cast<double>(decim);
  out.samples.reserve(filtered.size() / decim + 1);
  for (std::size_t i = 0; i < filtered.size(); i += decim)
    out.samples.push_back(filtered[i]);
  return out;
}

CplxView downconvert_filtered(std::span<const double> x, double sample_rate,
                              double carrier_hz, const BiquadCascade& lowpass,
                              std::size_t decim, Arena& arena) {
  require(decim >= 1, "downconvert_filtered: decim must be >= 1");
  auto buf = arena.alloc<cplx>(x.size());
  downconvert_into(x, sample_rate, carrier_hz, buf);
  lowpass.filter_into(buf, buf);  // alias-safe in place
  if (decim == 1) return CplxView(buf, sample_rate, carrier_hz);
  // In-place decimation: the forward stride only ever reads at or ahead of
  // the write cursor, so compacting toward the front is safe.
  std::size_t j = 0;
  for (std::size_t i = 0; i < buf.size(); i += decim) buf[j++] = buf[i];
  return CplxView(buf.first(j), sample_rate / static_cast<double>(decim),
                  carrier_hz);
}

Signal upconvert(const BasebandSignal& x, double carrier_hz) {
  require(x.sample_rate > 0.0, "upconvert: sample rate unset");
  Signal y;
  y.sample_rate = x.sample_rate;
  y.samples.resize(x.size());
  simd::mix_up(x.samples, kTwoPi * carrier_hz / x.sample_rate, y.samples);
  return y;
}

}  // namespace pab::dsp
