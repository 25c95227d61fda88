// Internal to dsp::simd: the raw-pointer kernel table each ISA fills in, and
// the generic block-structured implementations the vector TUs share.  Not
// part of the public dsp API -- include dsp/simd.hpp instead.
//
// The generic implementations here are deliberately written in a
// vectorization-friendly style (block-anchored oscillators, branch-free
// element-wise loops).  Each vector TU wraps them in target-attributed
// functions: GCC inlines default-option callees into callers with wider ISA
// options, so the same source vectorizes per ISA.  They are NOT bit-identical to the
// scalar reference loops (which live verbatim in simd.cpp) -- they are the
// tolerance-bounded (<= 1e-9 relative) vector path.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>

namespace pab::dsp::simd {

using cplx = std::complex<double>;

struct CovVarRaw {
  double cov;
  double var;
};

// One table per ISA; pointers are never null.  Dispatch picks a table once
// at startup (simd.cpp) and publishes it through an atomic pointer.
struct KernelTable {
  double (*sum)(const double* x, std::size_t n);
  CovVarRaw (*centered_cov_var)(const double* x, const double* t, std::size_t n,
                                double x_mean);
  void (*axpy)(cplx g, const cplx* x, cplx* y, std::size_t n);
  void (*magnitude)(const cplx* x, double* out, std::size_t n);
  void (*cmul)(const cplx* a, const cplx* b, cplx* out, std::size_t n);
  void (*mix_down)(const double* x, double w, cplx* out, std::size_t n);
  void (*mix_up)(const cplx* x, double w, double* out, std::size_t n);
  void (*chip_sum_diff)(const double* soft, double* sum, double* diff,
                        std::size_t n);
  void (*fft_butterflies)(cplx* data, std::size_t n, const cplx* tw,
                          bool inverse);
};

// The scalar table's butterfly passes (simd.cpp).  NEON points at it, and
// the AVX2 kernel runs it for n < 4, so those paths are the scalar bits by
// construction.
void scalar_fft_butterflies(cplx* data, std::size_t n, const cplx* tw,
                            bool inverse);

// Vector tables; null when the ISA is not compiled in (wrong architecture).
const KernelTable* avx2_kernels();  // simd_avx2.cpp
const KernelTable* neon_kernels();  // simd_neon.cpp

namespace detail {

// Oscillators re-anchor the recurrence phasor with exact libm sin/cos every
// kAnchor samples, so rotation round-off never accumulates past a few tens
// of ulp (~1e-14 relative) while libm is called N/kAnchor times instead of N.
inline constexpr std::size_t kAnchor = 128;

// Fill c[i] = cos(w*(base+i) + phase), s[i] = sin(...) for i < n (n <=
// kAnchor) by rotating an exact anchor phasor.
inline void osc_block(double w, double phase, std::size_t base, std::size_t n,
                      double* c, double* s) {
  const double ph0 = w * static_cast<double>(base) + phase;
  double cr = std::cos(ph0), sr = std::sin(ph0);
  const double cw = std::cos(w), sw = std::sin(w);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = cr;
    s[i] = sr;
    const double cn = cr * cw - sr * sw;
    sr = sr * cw + cr * sw;
    cr = cn;
  }
}

inline void osc_mix_down(const double* x, double w, cplx* out, std::size_t n) {
  double c[kAnchor], s[kAnchor];
  for (std::size_t base = 0; base < n; base += kAnchor) {
    const std::size_t m = n - base < kAnchor ? n - base : kAnchor;
    osc_block(w, 0.0, base, m, c, s);
    for (std::size_t i = 0; i < m; ++i) {
      const double g = 2.0 * x[base + i];
      out[base + i] = cplx(g * c[i], -(g * s[i]));
    }
  }
}

inline void osc_mix_up(const cplx* x, double w, double* out, std::size_t n) {
  double c[kAnchor], s[kAnchor];
  for (std::size_t base = 0; base < n; base += kAnchor) {
    const std::size_t m = n - base < kAnchor ? n - base : kAnchor;
    osc_block(w, 0.0, base, m, c, s);
    for (std::size_t i = 0; i < m; ++i)
      out[base + i] = x[base + i].real() * c[i] - x[base + i].imag() * s[i];
  }
}

inline void axpy(cplx g, const cplx* x, cplx* y, std::size_t n) {
  const double gr = g.real(), gi = g.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = x[i].real(), xi = x[i].imag();
    y[i] = cplx(y[i].real() + (gr * xr - gi * xi),
                y[i].imag() + (gr * xi + gi * xr));
  }
}

inline void magnitude_sqrt(const cplx* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double re = x[i].real(), im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

inline void cmul_ew(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = cplx(ar * br - ai * bi, ar * bi + ai * br);
  }
}

inline void chip_sum_diff_ew(const double* soft, double* sum, double* diff,
                             std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) {
    sum[t] = soft[2 * t] + soft[2 * t + 1];
    diff[t] = soft[2 * t] - soft[2 * t + 1];
  }
}

}  // namespace detail
}  // namespace pab::dsp::simd
