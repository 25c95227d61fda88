// Radix-2 FFT, behind the spectrogram (dsp/spectrogram) and the overlap-save
// fast convolution (dsp/fftconv).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/signal.hpp"

namespace pab::dsp {

// In-place iterative radix-2 Cooley-Tukey FFT.  Size must be a power of two.
void fft_inplace(std::span<cplx> data, bool inverse = false);

// Out-of-place convenience wrappers.  Input is zero-padded to the next power
// of two.
[[nodiscard]] std::vector<cplx> fft(std::span<const cplx> input);
[[nodiscard]] std::vector<cplx> fft(std::span<const double> input);
[[nodiscard]] std::vector<cplx> ifft(std::span<const cplx> input);

[[nodiscard]] std::size_t next_pow2(std::size_t n);

}  // namespace pab::dsp
