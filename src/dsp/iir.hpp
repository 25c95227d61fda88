// Butterworth IIR filters as cascaded biquad sections.
//
// The paper's receiver "employs a Butterworth filter on each of the receive
// channels to isolate the signal of interest and reduce interference from
// concurrent transmissions" (section 5.1b).  Each channel is first
// down-converted to baseband (dsp/mixer), so isolation is one low-pass: an
// analog Butterworth prototype mapped through the bilinear transform with
// frequency prewarping.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace pab::dsp {

// One second-order section, direct form II transposed.
struct Biquad {
  // Normalized so a0 == 1.
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

class BiquadCascade {
 public:
  BiquadCascade() = default;
  explicit BiquadCascade(std::vector<Biquad> sections)
      : sections_(std::move(sections)) {}

  // Filter a whole buffer from zero initial state.
  [[nodiscard]] std::vector<double> filter(std::span<const double> x) const;
  [[nodiscard]] std::vector<std::complex<double>> filter(
      std::span<const std::complex<double>> x) const;

  // Into-output form of the complex filter (the receiver's trial path), from
  // zero initial state; y.size() must equal x.size() and `y` may alias `x`
  // (in-place filtering).  Filter state lives on the stack for up to 24
  // sections, so this performs no heap allocation.  The complex filter()
  // above is a thin wrapper, bit-identical by construction.
  void filter_into(std::span<const std::complex<double>> x,
                   std::span<std::complex<double>> y) const;

  [[nodiscard]] const std::vector<Biquad>& sections() const { return sections_; }

  // Complex frequency response at `freq_hz` for signals sampled at `fs`.
  [[nodiscard]] std::complex<double> response(double freq_hz, double fs) const;

  // True if all poles lie strictly inside the unit circle.
  [[nodiscard]] bool is_stable() const;

 private:
  std::vector<Biquad> sections_;
};

// Designer.  `order` is the analog prototype order (1..12 supported).
[[nodiscard]] BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double fs);

}  // namespace pab::dsp
