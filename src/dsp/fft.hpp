// Radix-2 FFT, behind the spectrogram (dsp/spectrogram) and the overlap-save
// fast convolution (dsp/fftconv).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/signal.hpp"

namespace pab::dsp {

// An in-place iterative radix-2 Cooley-Tukey transform of one power-of-two
// size.  Immutable after construction: the bit-reversal permutation plus
// exact twiddles exp(-2*pi*i*k/n), each computed from its own index rather
// than by a running product, so long transforms keep full twiddle precision.
// The twiddles are stored per stage and contiguous (n - 1 values; the stage
// of half-length h reads h of them from offset h - 1), and the butterfly
// passes run through the dispatched kernel simd::fft_butterflies, whose
// every table computes the same bits.
class FftPlan {
 public:
  // Throws std::invalid_argument unless `n` is a power of two.
  explicit FftPlan(std::size_t n);

  // data.size() must equal n.  The inverse transform scales by 1/n.
  void transform(std::span<cplx> data, bool inverse = false) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> rev_;
  std::vector<cplx> tw_;
};

// The process-wide plan for size `n`, built on first use and cached for the
// life of the process.  The mutex guards only the lookup; use is lock-free.
[[nodiscard]] const FftPlan& fft_plan(std::size_t n);

// Number of distinct FFT sizes planned so far (test/diagnostic hook).
[[nodiscard]] std::size_t fft_plan_cache_size();

[[nodiscard]] std::size_t next_pow2(std::size_t n);

}  // namespace pab::dsp
