// Test signal sources and reference decoders.  The simulator never needs
// them: tests use them to build inputs (tones, passband copies of a
// baseband) and as independent references for the one receiver front end
// (mean power, hard-decision FM0, the real-valued biquad recursion).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/iir.hpp"
#include "dsp/signal.hpp"
#include "dsp/simd.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::testing {

// Real sine carrier: amplitude * sin(2*pi*f*t + phase), floor(duration_s *
// fs) samples.
inline dsp::Signal make_tone(double freq_hz, double amplitude,
                             double duration_s, double sample_rate,
                             double phase = 0.0) {
  require(sample_rate > 0.0, "make_tone: sample rate must be positive");
  require(duration_s >= 0.0, "make_tone: negative duration");
  const double w = kTwoPi * freq_hz / sample_rate;
  dsp::Signal s;
  s.sample_rate = sample_rate;
  s.samples.resize(static_cast<std::size_t>(duration_s * sample_rate));
  for (std::size_t i = 0; i < s.samples.size(); ++i)
    s.samples[i] = amplitude * std::sin(w * static_cast<double>(i) + phase);
  return s;
}

// Complex baseband back to real passband:
// y[n] = Re(x[n]) cos(w n) - Im(x[n]) sin(w n), w = 2*pi*fc/fs.
inline dsp::Signal upconvert(const dsp::BasebandSignal& x, double carrier_hz) {
  require(x.sample_rate > 0.0, "upconvert: sample rate unset");
  dsp::Signal y;
  y.sample_rate = x.sample_rate;
  y.samples.resize(x.size());
  dsp::simd::mix_up(x.samples, kTwoPi * carrier_hz / x.sample_rate, y.samples);
  return y;
}

// Mean power (mean square) of a span of samples; 0 when empty.
inline double signal_power(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x * x;
  return s / static_cast<double>(xs.size());
}

inline double signal_power(std::span<const dsp::cplx> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const dsp::cplx& x : xs) s += std::norm(x);
  return s / static_cast<double>(xs.size());
}

// Hard-decision FM0 decode of noiseless chips: a bit is 1 when its two
// chips agree (no mid-bit inversion).
inline Bits fm0_decode_hard(std::span<const std::int8_t> chips) {
  require(chips.size() % 2 == 0, "fm0_decode_hard: odd chip count");
  Bits bits;
  bits.reserve(chips.size() / 2);
  for (std::size_t i = 0; i < chips.size(); i += 2)
    bits.push_back(chips[i] == chips[i + 1] ? 1 : 0);
  return bits;
}

// The cascade's direct-form-II-transposed recursion on a real input, from
// zero state: the reference the complex filter_into must reproduce on each
// channel.
inline std::vector<double> biquad_filter(const dsp::BiquadCascade& cascade,
                                         std::span<const double> x) {
  const auto& sections = cascade.sections();
  std::vector<double> s1(sections.size(), 0.0), s2(sections.size(), 0.0);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double v = x[i];
    for (std::size_t k = 0; k < sections.size(); ++k) {
      const dsp::Biquad& c = sections[k];
      const double out = c.b0 * v + s1[k];
      s1[k] = c.b1 * v - c.a1 * out + s2[k];
      s2[k] = c.b2 * v - c.a2 * out;
      v = out;
    }
    y[i] = v;
  }
  return y;
}

}  // namespace pab::testing
