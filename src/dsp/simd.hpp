// Runtime-dispatched SIMD kernels for the DSP hot path.
//
// Every kernel has a scalar reference implementation that reproduces the
// pre-vectorization loops bit-for-bit, plus optional AVX2 (x86-64) and NEON
// (aarch64) paths compiled with per-function target attributes and selected
// ONCE at startup.  Callers either call the dispatched wrappers below
// (identical arithmetic under scalar dispatch) or branch on `enabled()` when
// the vector path restructures the computation (FM0 branch-metric
// precompute, add_delayed_scaled_into axpy split).
//
// Contract (see DESIGN.md §12):
//   * scalar dispatch  -> bit-identical to the pre-SIMD reference loops;
//   * AVX2/NEON paths  -> equal to the reference within 1e-9 relative
//     (vector lanes reassociate sums; oscillators use block-anchored
//     rotations with libm-exact anchors), except fft_butterflies, which is
//     bit-identical to the scalar table on every ISA.
//
// Escape hatch: PAB_SIMD=off (or "scalar"/"0") in the environment forces the
// scalar table AND disables FFT fast convolution (dsp/fftconv.hpp), so the
// whole signal path reproduces the reference results exactly.  PAB_SIMD=avx2
// / PAB_SIMD=neon force a specific ISA (falling back to scalar when the host
// lacks it); unset or "on" auto-detects.  The chosen table is published as
// the obs gauge `dsp.simd.dispatch` (0 scalar, 1 AVX2, 2 NEON).
#pragma once

#include <complex>
#include <cstddef>
#include <span>

namespace pab::dsp::simd {

using cplx = std::complex<double>;

enum class Isa : int { kScalar = 0, kAvx2 = 1, kNeon = 2 };

[[nodiscard]] const char* isa_name(Isa isa);

// The ISA chosen at startup (honouring PAB_SIMD) or forced by a test hook.
[[nodiscard]] Isa active();

// True when a vector ISA is active (callers branch to restructured paths).
[[nodiscard]] bool enabled();

// True when FFT fast convolution may replace direct convolution.  Off when
// PAB_SIMD=off: the FFT path is tolerance-equal, not bit-equal, to direct
// convolution, so the scalar escape hatch disables it too.
[[nodiscard]] bool fftconv_enabled();

// ---- test hooks ------------------------------------------------------------
// Force a dispatch table / the fftconv gate; returns the previous value.
// Forcing an ISA the host cannot run falls back to kScalar.  Tests use the
// RAII guard to restore state.
Isa force_isa(Isa isa);
bool force_fftconv(bool on);

class DispatchGuard {
 public:
  DispatchGuard(Isa isa, bool fftconv)
      : prev_isa_(force_isa(isa)), prev_fftconv_(force_fftconv(fftconv)) {}
  ~DispatchGuard() {
    force_isa(prev_isa_);
    force_fftconv(prev_fftconv_);
  }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  Isa prev_isa_;
  bool prev_fftconv_;
};

// ---- dispatched kernels ----------------------------------------------------
// Under scalar dispatch each of these is the exact reference loop (same
// arithmetic, same order); under AVX2/NEON they are tolerance-equal.

// Sequential-order sum of x (reference: `for v: s += v`).
[[nodiscard]] double sum(std::span<const double> x);

// One Pearson window: cov = sum (x[i]-x_mean)*t[i], var = sum (x[i]-x_mean)^2.
struct CovVar {
  double cov;
  double var;
};
[[nodiscard]] CovVar centered_cov_var(std::span<const double> x,
                                      std::span<const double> t, double x_mean);

// y[i] += g * x[i]  (x.size() elements; y must be at least as long).
void axpy(cplx g, std::span<const cplx> x, std::span<cplx> y);

// out[i] = |x[i]|  (reference: std::abs on std::complex).
void magnitude(std::span<const cplx> x, std::span<double> out);

// out[i] = a[i] * b[i]  (complex element-wise product, used on FFT spectra).
void cmul(std::span<const cplx> a, std::span<const cplx> b, std::span<cplx> out);

// ---- oscillator kernels ----------------------------------------------------
// w is the per-sample phase increment in radians.  The scalar path evaluates
// libm sin/cos per sample exactly like the pre-SIMD mixers; vector paths use
// block-anchored rotations: every kBlock samples the phase is re-anchored
// with exact libm sincos, so the phase error never exceeds a few ulp of the
// anchor product.

// out[i] = 2 * x[i] * exp(-j*w*i)   (quadrature down-conversion).
void mix_down(std::span<const double> x, double w, std::span<cplx> out);

// out[i] = Re(x[i]) cos(w i) - Im(x[i]) sin(w i)   (up-conversion).
void mix_up(std::span<const cplx> x, double w, std::span<double> out);

// ---- FFT butterflies ---------------------------------------------------------
// The radix-2 butterfly passes of dsp::FftPlan over bit-reversed `data`
// (n = data.size(), a power of two): for each half-length h = 1, 2, .., n/2
// and each butterfly, v = data[i+k+h] * w, data[i+k] = u + v and
// data[i+k+h] = u - v, with w = tw[h-1+k], or conj(w) when `inverse` (the
// 1/n scale is the caller's).  tw.size() must be n - 1.  Unlike the other
// vector kernels this one is bit-identical across tables: the vector path
// forms v from the scalar complex product's own multiplies and adds, never
// fused (DESIGN.md §12).
void fft_butterflies(std::span<cplx> data, std::span<const cplx> tw,
                     bool inverse);

// ---- FM0 branch-metric precompute ------------------------------------------
// sum[t] = soft[2t] + soft[2t+1], diff[t] = soft[2t] - soft[2t+1].
// Used by the vectorized ML decoder; n = sum.size() = diff.size(),
// soft.size() == 2n.
void chip_sum_diff(std::span<const double> soft, std::span<double> sum,
                   std::span<double> diff);

}  // namespace pab::dsp::simd
