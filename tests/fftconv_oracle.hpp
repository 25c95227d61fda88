// Test oracle for dsp::FftPlan and dsp::fftconv_full: the strided-twiddle
// radix-2 transform and the block-by-block overlap-save body they replaced.
// Every transform and every block is computed; nothing is reused.  The
// library's plans keep the same twiddle values per stage, run the butterflies
// through the dispatch table, and copy repeated blocks, so they must match
// these bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "util/units.hpp"

namespace pab::testing {

using cplx = std::complex<double>;

// In-place radix-2 transform reading the n/2 full-size twiddles at a stride
// of n / len per stage.
class OracleFft {
 public:
  explicit OracleFft(std::size_t n) : n_(n), rev_(n, 0), tw_(n / 2) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev_[i] = j;
    }
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double a = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      tw_[k] = cplx(std::cos(a), std::sin(a));
    }
  }

  void transform(std::span<cplx> data, bool inverse = false) const {
    for (std::size_t i = 1; i < n_; ++i)
      if (i < rev_[i]) std::swap(data[i], data[rev_[i]]);
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const std::size_t stride = n_ / len;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const cplx w = inverse ? std::conj(tw_[k * stride]) : tw_[k * stride];
          const cplx u = data[i + k];
          const cplx v = data[i + k + len / 2] * w;
          data[i + k] = u + v;
          data[i + k + len / 2] = u - v;
        }
      }
    }
    if (!inverse) return;
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (auto& x : data) x *= inv_n;
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> rev_;
  std::vector<cplx> tw_;
};

// Full linear convolution by overlap-save, every block transformed: the
// output chunk [pos, pos+S) comes from x[pos-(nh-1) .. pos+S), zero-padded
// outside x.  Block size and spectrum product as in dsp::fftconv_full.
inline std::vector<cplx> fftconv_full_oracle(std::span<const cplx> h,
                                             std::span<const cplx> x) {
  const std::size_t nh = h.size();
  const std::size_t nfull = x.size() + nh - 1;
  std::vector<cplx> y(nfull);
  const std::size_t B =
      std::min(dsp::next_pow2(std::max<std::size_t>(4 * nh, 256)),
               dsp::next_pow2(nfull));
  const std::size_t S = B - nh + 1;
  const OracleFft plan(B);
  std::vector<cplx> hspec(B, cplx{});
  std::copy(h.begin(), h.end(), hspec.begin());
  plan.transform(hspec);
  std::vector<cplx> buf(B);
  const auto nx = static_cast<std::ptrdiff_t>(x.size());
  for (std::size_t pos = 0; pos < nfull; pos += S) {
    const auto start =
        static_cast<std::ptrdiff_t>(pos) - static_cast<std::ptrdiff_t>(nh - 1);
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(start, 0);
    const std::ptrdiff_t hi =
        std::min(start + static_cast<std::ptrdiff_t>(B), nx);
    std::fill(buf.begin(), buf.end(), cplx{});
    if (hi > lo)
      std::copy(x.begin() + lo, x.begin() + hi, buf.begin() + (lo - start));
    plan.transform(buf);
    dsp::simd::cmul(buf, hspec, buf);
    plan.transform(buf, /*inverse=*/true);
    const std::size_t m = std::min(S, nfull - pos);
    std::copy(buf.begin() + static_cast<std::ptrdiff_t>(nh - 1),
              buf.begin() + static_cast<std::ptrdiff_t>(nh - 1 + m),
              y.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return y;
}

}  // namespace pab::testing
