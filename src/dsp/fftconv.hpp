// Overlap-save FFT fast convolution on the cached radix-2 plans of dsp/fft.
//
// Dense channel tap sets over long signals cost O(N * Nh) directly but
// O(N log B) through block FFTs.  This module provides the FFT path the
// channel tap kernel (channel::apply_taps_baseband_into) switches to when
// its cost model favours it (DESIGN.md §12):
//
//   * transforms run on the process-wide plans of dsp::fft_plan;
//   * scratch comes from the caller's Arena (the phy::Workspace arena on the
//     trial path), so steady-state calls never touch the heap;
//   * results equal the direct accumulation within 1e-9 relative tolerance
//     (FFT round-off); the dispatch escape hatch PAB_SIMD=off routes callers
//     back to the bit-exact direct loops (see dsp/simd.hpp);
//   * blocks whose input window repeats the input's leading run of identical
//     samples (a CW envelope) are transformed once and copied after that,
//     with the same bits as transforming each.
//
// Every FFT-path call increments the obs counter `dsp.fftconv.hits` and adds
// its overlap-save block count to `dsp.fftconv.blocks`, of which the copied
// ones to `dsp.fftconv.blocks_reused`.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "dsp/arena.hpp"

namespace pab::dsp {

// Cost-model decision for a sparse tap set rendered dense: compare the
// overlap-save FFT work against `ntaps` direct accumulation passes over an
// n-sample signal.  `dense_len` is the dense impulse-response length
// (max integer tap delay + 2).
[[nodiscard]] bool fftconv_use_for_taps(std::size_t ntaps, std::size_t n,
                                        std::size_t dense_len);

// Full linear convolution y = x (*) h, y.size() == x.size() + h.size() - 1.
// `y` is overwritten and must not alias `x` or `h`; `arena` backs the
// kernel spectrum and the block buffer.
void fftconv_full(std::span<const std::complex<double>> h,
                  std::span<const std::complex<double>> x,
                  std::span<std::complex<double>> y, Arena& arena);

}  // namespace pab::dsp
