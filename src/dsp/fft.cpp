#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  require(n != 0 && (n & (n - 1)) == 0, "fft: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? kTwoPi : -kTwoPi) / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

std::vector<cplx> fft(std::span<const cplx> input) {
  std::vector<cplx> data(input.begin(), input.end());
  data.resize(next_pow2(std::max<std::size_t>(input.size(), 1)), cplx{});
  fft_inplace(data);
  return data;
}

std::vector<cplx> fft(std::span<const double> input) {
  std::vector<cplx> data(input.size());
  std::transform(input.begin(), input.end(), data.begin(),
                 [](double v) { return cplx(v, 0.0); });
  data.resize(next_pow2(std::max<std::size_t>(input.size(), 1)), cplx{});
  fft_inplace(data);
  return data;
}

std::vector<cplx> ifft(std::span<const cplx> input) {
  std::vector<cplx> data(input.begin(), input.end());
  data.resize(next_pow2(std::max<std::size_t>(input.size(), 1)), cplx{});
  fft_inplace(data, /*inverse=*/true);
  return data;
}

}  // namespace pab::dsp
