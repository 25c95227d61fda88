// NEON (aarch64) kernel table.  Advanced SIMD is baseline on aarch64, so no
// runtime feature probe or target attribute is needed -- the table is simply
// compiled in (and selected by default) on arm64 builds.  Reductions use
// explicit two-vector accumulators via vfmaq_f64 / vaddvq_f64; the
// oscillators and element-wise kernels reuse the generic block
// implementations from simd_kernels.hpp, which the compiler auto-vectorizes
// for NEON.  Tolerance-bounded (<= 1e-9 relative) against the scalar table,
// exactly like the AVX2 path; the FFT butterflies are the scalar function.
#include "dsp/simd_kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace pab::dsp::simd {
namespace {

double neon_sum(const double* x, std::size_t n) {
  float64x2_t a0 = vdupq_n_f64(0.0), a1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 = vaddq_f64(a0, vld1q_f64(x + i));
    a1 = vaddq_f64(a1, vld1q_f64(x + i + 2));
  }
  double s = vaddvq_f64(vaddq_f64(a0, a1));
  for (; i < n; ++i) s += x[i];
  return s;
}

CovVarRaw neon_cov_var(const double* x, const double* t, std::size_t n,
                       double x_mean) {
  const float64x2_t mean = vdupq_n_f64(x_mean);
  float64x2_t cov = vdupq_n_f64(0.0), var = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t xc = vsubq_f64(vld1q_f64(x + i), mean);
    cov = vfmaq_f64(cov, xc, vld1q_f64(t + i));
    var = vfmaq_f64(var, xc, xc);
  }
  double c = vaddvq_f64(cov), v = vaddvq_f64(var);
  for (; i < n; ++i) {
    const double xc = x[i] - x_mean;
    c += xc * t[i];
    v += xc * xc;
  }
  return {c, v};
}

void neon_axpy(cplx g, const cplx* x, cplx* y, std::size_t n) {
  detail::axpy(g, x, y, n);
}

void neon_magnitude(const cplx* x, double* out, std::size_t n) {
  detail::magnitude_sqrt(x, out, n);
}

void neon_cmul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  detail::cmul_ew(a, b, out, n);
}

void neon_mix_down(const double* x, double w, cplx* out, std::size_t n) {
  detail::osc_mix_down(x, w, out, n);
}

void neon_mix_up(const cplx* x, double w, double* out, std::size_t n) {
  detail::osc_mix_up(x, w, out, n);
}

void neon_chip_sum_diff(const double* soft, double* sum, double* diff,
                        std::size_t n) {
  detail::chip_sum_diff_ew(soft, sum, diff, n);
}

// The butterflies are the scalar table's function itself: no NEON kernel is
// tested on aarch64 hardware, and sharing the function keeps the
// bit-identical contract by construction.
constexpr KernelTable kNeonTable = {
    neon_sum,       neon_cov_var,       neon_axpy,
    neon_magnitude, neon_cmul,          neon_mix_down,
    neon_mix_up,    neon_chip_sum_diff, scalar_fft_butterflies,
};

}  // namespace

const KernelTable* neon_kernels() { return &kNeonTable; }

}  // namespace pab::dsp::simd

#else  // not aarch64

namespace pab::dsp::simd {
const KernelTable* neon_kernels() { return nullptr; }
}  // namespace pab::dsp::simd

#endif
