#include "dsp/fftconv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::dsp {
namespace {

using cplx = std::complex<double>;

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::MetricRegistry::global().counter("dsp.fftconv.hits");
  return c;
}

obs::Counter& blocks_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("dsp.fftconv.blocks");
  return c;
}

obs::Counter& blocks_reused_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("dsp.fftconv.blocks_reused");
  return c;
}

// Length of the leading run of samples bitwise equal to x[0].  Bits, not
// operator==: +0.0 == -0.0, yet the two transform differently.
std::size_t leading_run(std::span<const cplx> x) {
  std::size_t i = 1;
  while (i < x.size() && std::memcmp(&x[i], &x[0], sizeof(cplx)) == 0) ++i;
  return i;
}

// Overlap-save block size: ~4x the kernel amortizes the (nh-1)-sample block
// overlap, floored at 256; never larger than one transform covering the
// whole output.
std::size_t choose_block(std::size_t nh, std::size_t nfull) {
  const std::size_t blocked = next_pow2(std::max<std::size_t>(4 * nh, 256));
  return std::min(blocked, next_pow2(nfull));
}

}  // namespace

bool fftconv_use_for_taps(std::size_t ntaps, std::size_t n,
                          std::size_t dense_len) {
  if (!simd::fftconv_enabled()) return false;
  if (ntaps < 8 || n < 512 || dense_len < 16) return false;
  const std::size_t nfull = n + dense_len - 1;
  const std::size_t B = choose_block(dense_len, nfull);
  const double S = static_cast<double>(B - dense_len + 1);
  const double nblocks = std::ceil(static_cast<double>(nfull) / S);
  const double log2b = std::log2(static_cast<double>(B));
  // ~5*B*log2(B) flops per complex transform; two transforms plus the
  // pointwise product per block, one H transform, the dense-h build.
  const double fft_cost = (2.0 * nblocks + 1.0) * 5.0 *
                              static_cast<double>(B) * log2b +
                          nblocks * 6.0 * static_cast<double>(B) +
                          static_cast<double>(dense_len);
  // Complex tap accumulation: ~8 flops per sample per tap.
  const double direct_cost =
      8.0 * static_cast<double>(ntaps) * static_cast<double>(n);
  return fft_cost < direct_cost;
}

// Full linear convolution of complex sequences via overlap-save: for each
// output chunk [pos, pos+S) the transform input is x[pos-(nh-1) .. pos+S)
// (zero-padded outside x), and the last S samples of the circular product
// are exactly the linear convolution there.
//
// A block whose B-sample input window lies, unpadded, inside the leading run
// of samples bitwise equal to x[0] has the same input as every other such
// block, so its transforms yield the same S output samples bit for bit: the
// first is computed and the rest copy it.  A CW envelope is one such run.
void fftconv_full(std::span<const cplx> h, std::span<const cplx> x,
                  std::span<cplx> y, Arena& arena) {
  require(!h.empty(), "fftconv: empty kernel");
  const std::size_t nh = h.size();
  const std::size_t nfull = x.size() + nh - 1;
  require(y.size() == nfull, "fftconv: output size mismatch");
  if (x.empty()) {
    std::fill(y.begin(), y.end(), cplx{});
    return;
  }
  const std::size_t B = choose_block(nh, nfull);
  const std::size_t S = B - nh + 1;
  const FftPlan& plan = fft_plan(B);
  const auto frame = arena.frame();

  auto hspec = arena.alloc_zero<cplx>(B);
  std::copy(h.begin(), h.end(), hspec.begin());
  plan.transform(hspec, /*inverse=*/false);

  auto buf = arena.alloc<cplx>(B);
  const auto nx = static_cast<std::ptrdiff_t>(x.size());
  const auto run = static_cast<std::ptrdiff_t>(leading_run(x));
  std::size_t blocks = 0, reused = 0;
  std::size_t run_block = nfull;  // output position of the first in-run block
  for (std::size_t pos = 0; pos < nfull; pos += S, ++blocks) {
    const auto start =
        static_cast<std::ptrdiff_t>(pos) - static_cast<std::ptrdiff_t>(nh - 1);
    const bool in_run =
        start >= 0 && start + static_cast<std::ptrdiff_t>(B) <= run;
    // In-run blocks end before x does, so each writes a full S samples.
    if (in_run && run_block != nfull) {
      std::copy_n(y.begin() + static_cast<std::ptrdiff_t>(run_block), S,
                  y.begin() + static_cast<std::ptrdiff_t>(pos));
      ++reused;
      continue;
    }
    if (in_run) run_block = pos;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(start, 0);
    const std::ptrdiff_t hi =
        std::min(start + static_cast<std::ptrdiff_t>(B), nx);
    std::fill(buf.begin(), buf.end(), cplx{});
    if (hi > lo)
      std::copy(x.begin() + lo, x.begin() + hi, buf.begin() + (lo - start));
    plan.transform(buf, /*inverse=*/false);
    simd::cmul(buf, hspec, buf);
    plan.transform(buf, /*inverse=*/true);
    const std::size_t m = std::min(S, nfull - pos);
    std::copy(buf.begin() + static_cast<std::ptrdiff_t>(nh - 1),
              buf.begin() + static_cast<std::ptrdiff_t>(nh - 1 + m),
              y.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  hits_counter().add();
  blocks_counter().add(blocks);
  blocks_reused_counter().add(reused);
}

}  // namespace pab::dsp
