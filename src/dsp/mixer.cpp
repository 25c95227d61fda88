#include "dsp/mixer.hpp"

#include "dsp/iir.hpp"
#include "dsp/simd.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {

void downconvert_into(std::span<const double> x, double sample_rate,
                      double carrier_hz, std::span<cplx> out) {
  require(sample_rate > 0.0, "downconvert: sample rate unset");
  require(out.size() == x.size(), "downconvert_into: size mismatch");
  const double w = kTwoPi * carrier_hz / sample_rate;
  // Multiply by exp(-j w n); factor 2 recovers the baseband envelope
  // amplitude after low-pass filtering.
  simd::mix_down(x, w, out);
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

BasebandSignal downconvert_filtered(const Signal& x, double carrier_hz,
                                    double lowpass_hz, int order,
                                    std::size_t decim) {
  const BiquadCascade lp = butterworth_lowpass(order, lowpass_hz, x.sample_rate);
  Arena arena(x.size() * sizeof(cplx));
  const CplxView y =
      downconvert_filtered(x.samples, x.sample_rate, carrier_hz, lp, decim, arena);
  BasebandSignal out;
  out.samples.assign(y.samples.begin(), y.samples.end());
  out.sample_rate = y.sample_rate;
  out.carrier_hz = y.carrier_hz;
  return out;
}

}  // namespace pab::dsp
