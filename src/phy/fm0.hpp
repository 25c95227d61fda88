// FM0 (bi-phase space) line coding for the backscatter uplink.
//
// PAB "adopts FM0 modulation on the uplink" (paper section 3.2): the
// reflection state inverts at every bit boundary, and a data-0 adds a
// mid-bit inversion.  Each bit therefore occupies two chips, and the decoder
// can exploit the guaranteed boundary transition for timing.  Decoding is
// maximum-likelihood sequence detection (two-state Viterbi over the ending
// level), matching the paper's "maximum likelihood decoder" (section 5.1b).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/arena.hpp"
#include "util/bitops.hpp"

namespace pab::phy {

// Chip levels are +1 (reflective) / -1 (absorptive).
using Chips = std::vector<std::int8_t>;

// Encode bits to 2 chips/bit.  `initial_level` is the line level *before*
// the first bit (the encoder inverts at each bit boundary).
[[nodiscard]] Chips fm0_encode(std::span<const std::uint8_t> bits,
                               std::int8_t initial_level = -1);

// Maximum-likelihood sequence decoding from soft chip values (arbitrary
// scale, sign convention as encode).  `soft.size()` must be even.
// Returns soft.size()/2 bits.
[[nodiscard]] Bits fm0_decode_ml(std::span<const double> soft,
                                 std::int8_t initial_level = -1);

// ---- into-output kernels (allocation-free; wrapped by the above) ----

// out.size() must equal 2 * bits.size().
void fm0_encode_into(std::span<const std::uint8_t> bits,
                     std::int8_t initial_level, std::span<std::int8_t> out);

// out.size() must equal soft.size() / 2; the Viterbi back-pointer table is
// carved from `scratch` (released by the caller's frame).
void fm0_decode_ml_into(std::span<const double> soft, std::int8_t initial_level,
                        std::span<std::uint8_t> out, dsp::Arena& scratch);

}  // namespace pab::phy
