#include "dsp/iir.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

// RBJ-cookbook second-order low-pass (bilinear transform with prewarping).
Biquad rbj_lowpass(double fc, double fs, double q) {
  const double w0 = kTwoPi * fc / fs;
  const double cw = std::cos(w0);
  const double alpha = std::sin(w0) / (2.0 * q);
  const double a0 = 1.0 + alpha;
  Biquad s;
  s.b0 = (1.0 - cw) / 2.0 / a0;
  s.b1 = (1.0 - cw) / a0;
  s.b2 = (1.0 - cw) / 2.0 / a0;
  s.a1 = -2.0 * cw / a0;
  s.a2 = (1.0 - alpha) / a0;
  return s;
}

// First-order low-pass section via bilinear transform, expressed as a
// degenerate biquad.
Biquad first_order_lowpass(double fc, double fs) {
  const double w = std::tan(kPi * fc / fs);  // prewarped
  const double a0 = w + 1.0;
  Biquad s;
  s.b0 = w / a0;
  s.b1 = w / a0;
  s.b2 = 0.0;
  s.a1 = (w - 1.0) / a0;
  s.a2 = 0.0;
  return s;
}

// Butterworth Q values for the conjugate pole pairs of an order-n prototype.
std::vector<double> butterworth_qs(int order) {
  std::vector<double> qs;
  for (int k = 0; k < order / 2; ++k) {
    const double theta = kPi * (2.0 * k + 1.0) / (2.0 * order);
    qs.push_back(1.0 / (2.0 * std::sin(theta)));
  }
  return qs;
}

void check_design(int order, double fc, double fs) {
  require(order >= 1 && order <= 12, "butterworth: order must be in [1,12]");
  require(fs > 0.0, "butterworth: sample rate must be positive");
  require(fc > 0.0 && fc < fs / 2.0, "butterworth: cutoff must be in (0, fs/2)");
}

// One direct-form-II-transposed step of one section.
inline double biquad_step(const Biquad& c, double x, double& s1, double& s2) {
  const double y = c.b0 * x + s1;
  s1 = c.b1 * x - c.a1 * y + s2;
  s2 = c.b2 * x - c.a2 * y;
  return y;
}

// Per-section filter state, real and imaginary channels.
struct State {
  double s1r = 0.0, s2r = 0.0;
  double s1i = 0.0, s2i = 0.0;
};

// The designer tops out at 6 sections (order-12 low-pass).  24 leaves
// headroom for hand-assembled cascades without touching the heap.
constexpr std::size_t kMaxStackSections = 24;

}  // namespace

void BiquadCascade::filter_into(std::span<const std::complex<double>> x,
                                std::span<std::complex<double>> y) const {
  require(y.size() == x.size(), "BiquadCascade::filter_into: size mismatch");
  State stack_state[kMaxStackSections] = {};
  std::vector<State> heap_state;
  State* st = stack_state;
  if (sections_.size() > kMaxStackSections) {
    heap_state.resize(sections_.size());
    st = heap_state.data();
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::complex<double> in = x[i];
    double vr = in.real(), vi = in.imag();
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const Biquad& c = sections_[s];
      vr = biquad_step(c, vr, st[s].s1r, st[s].s2r);
      vi = biquad_step(c, vi, st[s].s1i, st[s].s2i);
    }
    y[i] = {vr, vi};
  }
}

std::complex<double> BiquadCascade::response(double freq_hz, double fs) const {
  const std::complex<double> z =
      std::exp(std::complex<double>(0.0, kTwoPi * freq_hz / fs));
  const std::complex<double> zi = 1.0 / z;
  std::complex<double> h(1.0, 0.0);
  for (const Biquad& s : sections_) {
    const std::complex<double> num = s.b0 + s.b1 * zi + s.b2 * zi * zi;
    const std::complex<double> den = 1.0 + s.a1 * zi + s.a2 * zi * zi;
    h *= num / den;
  }
  return h;
}

bool BiquadCascade::is_stable() const {
  for (const Biquad& s : sections_) {
    // Stability triangle for 1 + a1 z^-1 + a2 z^-2.
    if (!(std::abs(s.a2) < 1.0 && std::abs(s.a1) < 1.0 + s.a2)) return false;
  }
  return true;
}

BiquadCascade butterworth_lowpass(int order, double cutoff_hz, double fs) {
  check_design(order, cutoff_hz, fs);
  std::vector<Biquad> sections;
  for (double q : butterworth_qs(order)) sections.push_back(rbj_lowpass(cutoff_hz, fs, q));
  if (order % 2 == 1) sections.push_back(first_order_lowpass(cutoff_hz, fs));
  return BiquadCascade(std::move(sections));
}

}  // namespace pab::dsp
