// AVX2+FMA kernel table.  Compiled into every x86-64 build via per-function
// target attributes (no special compile flags); selected at runtime only when
// __builtin_cpu_supports says the host can run it.  All results but the FFT
// butterflies' are tolerance-bounded (<= 1e-9 relative) against the scalar
// reference table: reductions reassociate across lanes, oscillators rotate
// block-anchored phasors instead of calling libm per sample.  The butterflies
// are bit-identical to the scalar table (see below).
#include "dsp/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#define PAB_AVX2 __attribute__((target("avx2,fma")))

namespace pab::dsp::simd {
namespace {

PAB_AVX2 inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

PAB_AVX2 double avx2_sum(const double* x, std::size_t n) {
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 = _mm256_add_pd(a0, _mm256_loadu_pd(x + i));
    a1 = _mm256_add_pd(a1, _mm256_loadu_pd(x + i + 4));
  }
  for (; i + 4 <= n; i += 4) a0 = _mm256_add_pd(a0, _mm256_loadu_pd(x + i));
  double s = hsum(_mm256_add_pd(a0, a1));
  for (; i < n; ++i) s += x[i];
  return s;
}

PAB_AVX2 CovVarRaw avx2_cov_var(const double* x, const double* t, std::size_t n,
                                double x_mean) {
  const __m256d mean = _mm256_set1_pd(x_mean);
  __m256d cov0 = _mm256_setzero_pd(), cov1 = _mm256_setzero_pd();
  __m256d var0 = _mm256_setzero_pd(), var1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d xc0 = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean);
    const __m256d xc1 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), mean);
    cov0 = _mm256_fmadd_pd(xc0, _mm256_loadu_pd(t + i), cov0);
    cov1 = _mm256_fmadd_pd(xc1, _mm256_loadu_pd(t + i + 4), cov1);
    var0 = _mm256_fmadd_pd(xc0, xc0, var0);
    var1 = _mm256_fmadd_pd(xc1, xc1, var1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d xc = _mm256_sub_pd(_mm256_loadu_pd(x + i), mean);
    cov0 = _mm256_fmadd_pd(xc, _mm256_loadu_pd(t + i), cov0);
    var0 = _mm256_fmadd_pd(xc, xc, var0);
  }
  double cov = hsum(_mm256_add_pd(cov0, cov1));
  double var = hsum(_mm256_add_pd(var0, var1));
  for (; i < n; ++i) {
    const double xc = x[i] - x_mean;
    cov += xc * t[i];
    var += xc * xc;
  }
  return {cov, var};
}

PAB_AVX2 void avx2_axpy(cplx g, const cplx* x, cplx* y, std::size_t n) {
  // (gr + j gi)(xr + j xi): per interleaved pair, gr*x +/- gi*swap(x).
  const __m256d gr = _mm256_set1_pd(g.real());
  const __m256d gi = _mm256_set1_pd(g.imag());
  const auto* xd = reinterpret_cast<const double*>(x);
  auto* yd = reinterpret_cast<double*>(y);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d xs = _mm256_permute_pd(xv, 0b0101);
    const __m256d prod =
        _mm256_addsub_pd(_mm256_mul_pd(gr, xv), _mm256_mul_pd(gi, xs));
    _mm256_storeu_pd(yd + 2 * i,
                     _mm256_add_pd(_mm256_loadu_pd(yd + 2 * i), prod));
  }
  for (; i < n; ++i) {
    const double xr = x[i].real(), xi = x[i].imag();
    y[i] = cplx(y[i].real() + (g.real() * xr - g.imag() * xi),
                y[i].imag() + (g.real() * xi + g.imag() * xr));
  }
}

PAB_AVX2 void avx2_magnitude(const cplx* x, double* out, std::size_t n) {
  const auto* xd = reinterpret_cast<const double*>(x);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(xd + 2 * i);      // r0 i0 r1 i1
    const __m256d b = _mm256_loadu_pd(xd + 2 * i + 4);  // r2 i2 r3 i3
    const __m256d t0 = _mm256_permute2f128_pd(a, b, 0x20);  // r0 i0 r2 i2
    const __m256d t1 = _mm256_permute2f128_pd(a, b, 0x31);  // r1 i1 r3 i3
    const __m256d re = _mm256_unpacklo_pd(t0, t1);          // r0 r1 r2 r3
    const __m256d im = _mm256_unpackhi_pd(t0, t1);          // i0 i1 i2 i3
    const __m256d mag = _mm256_sqrt_pd(
        _mm256_fmadd_pd(re, re, _mm256_mul_pd(im, im)));
    _mm256_storeu_pd(out + i, mag);
  }
  for (; i < n; ++i) {
    const double re = x[i].real(), im = x[i].imag();
    out[i] = __builtin_sqrt(re * re + im * im);
  }
}

PAB_AVX2 void avx2_cmul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  const auto* ad = reinterpret_cast<const double*>(a);
  const auto* bd = reinterpret_cast<const double*>(b);
  auto* od = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ad + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bd + 2 * i);
    const __m256d b_re = _mm256_permute_pd(bv, 0b0000);  // (br, br) per pair
    const __m256d b_im = _mm256_permute_pd(bv, 0b1111);  // (bi, bi) per pair
    const __m256d a_sw = _mm256_permute_pd(av, 0b0101);  // (ai, ar) per pair
    _mm256_storeu_pd(od + 2 * i,
                     _mm256_addsub_pd(_mm256_mul_pd(av, b_re),
                                      _mm256_mul_pd(a_sw, b_im)));
  }
  for (; i < n; ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = cplx(ar * br - ai * bi, ar * bi + ai * br);
  }
}

// Oscillators and the chip deinterleave: the generic block implementations
// from simd_kernels.hpp, inlined here so they vectorize under avx2+fma.
PAB_AVX2 void avx2_mix_down(const double* x, double w, cplx* out,
                            std::size_t n) {
  detail::osc_mix_down(x, w, out, n);
}

PAB_AVX2 void avx2_mix_up(const cplx* x, double w, double* out, std::size_t n) {
  detail::osc_mix_up(x, w, out, n);
}

PAB_AVX2 void avx2_chip_sum_diff(const double* soft, double* sum, double* diff,
                                 std::size_t n) {
  detail::chip_sum_diff_ew(soft, sum, diff, n);
}

// ---- FFT butterflies: bit-identical to the scalar table ----------------------
// Compiled for avx2 WITHOUT fma: GCC contracts a multiply and an add into one
// fused rounding when the target allows it, and the scalar complex product
// rounds each multiply.  Per butterfly pair the product v * w is formed from
// the scalar's four products and two sums: re = a*c - b*d and
// im = b*c + a*d (the scalar's a*d + b*c; IEEE addition commutes exactly).
// conj(w) negates d, exactly as std::conj does.
#define PAB_AVX2_EXACT __attribute__((target("avx2")))

// v * (c + jd) for two interleaved complex values, given (c, c) and (d, d)
// per pair.
PAB_AVX2_EXACT inline __m256d cmul_rounded(__m256d v, __m256d w_re,
                                           __m256d w_im) {
  const __m256d v_sw = _mm256_permute_pd(v, 0b0101);  // (b, a) per pair
  return _mm256_addsub_pd(_mm256_mul_pd(v, w_re), _mm256_mul_pd(v_sw, w_im));
}

template <bool kInverse>
PAB_AVX2_EXACT void avx2_butterfly_passes(cplx* data, std::size_t n,
                                          const cplx* tw) {
  auto* d = reinterpret_cast<double*>(data);
  const auto* t = reinterpret_cast<const double*>(tw);
  // Half-length 1: one twiddle; each pair of registers holds two butterflies
  // (x0 x1 | x2 x3), regrouped as u = (x0, x2) and v = (x1, x3).
  {
    const __m256d w_re = _mm256_set1_pd(t[0]);
    const __m256d w_im = _mm256_set1_pd(kInverse ? -t[1] : t[1]);
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d a = _mm256_loadu_pd(d + 2 * i);
      const __m256d b = _mm256_loadu_pd(d + 2 * i + 4);
      const __m256d u = _mm256_permute2f128_pd(a, b, 0x20);
      const __m256d v =
          cmul_rounded(_mm256_permute2f128_pd(a, b, 0x31), w_re, w_im);
      const __m256d sum = _mm256_add_pd(u, v);
      const __m256d diff = _mm256_sub_pd(u, v);
      _mm256_storeu_pd(d + 2 * i, _mm256_permute2f128_pd(sum, diff, 0x20));
      _mm256_storeu_pd(d + 2 * i + 4, _mm256_permute2f128_pd(sum, diff, 0x31));
    }
  }
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t half = 2; half < n; half <<= 1) {
    const double* stage = t + 2 * (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = d + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; k += 2) {
        const __m256d w = _mm256_loadu_pd(stage + 2 * k);
        const __m256d w_re = _mm256_movedup_pd(w);
        __m256d w_im = _mm256_permute_pd(w, 0b1111);
        if constexpr (kInverse) w_im = _mm256_xor_pd(w_im, sign);
        const __m256d u = _mm256_loadu_pd(lo + 2 * k);
        const __m256d v = cmul_rounded(_mm256_loadu_pd(hi + 2 * k), w_re, w_im);
        _mm256_storeu_pd(lo + 2 * k, _mm256_add_pd(u, v));
        _mm256_storeu_pd(hi + 2 * k, _mm256_sub_pd(u, v));
      }
    }
  }
}

PAB_AVX2_EXACT void avx2_fft_butterflies(cplx* data, std::size_t n,
                                         const cplx* tw, bool inverse) {
  if (n < 4)
    scalar_fft_butterflies(data, n, tw, inverse);
  else if (inverse)
    avx2_butterfly_passes<true>(data, n, tw);
  else
    avx2_butterfly_passes<false>(data, n, tw);
}

constexpr KernelTable kAvx2Table = {
    avx2_sum,       avx2_cov_var,       avx2_axpy,
    avx2_magnitude, avx2_cmul,          avx2_mix_down,
    avx2_mix_up,    avx2_chip_sum_diff, avx2_fft_butterflies,
};

}  // namespace

const KernelTable* avx2_kernels() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? &kAvx2Table
             : nullptr;
}

}  // namespace pab::dsp::simd

#else  // not x86-64

namespace pab::dsp::simd {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace pab::dsp::simd

#endif
