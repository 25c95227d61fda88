// Forward error correction: Hamming(7,4) with block interleaving.
//
// Open-water PAB links fade on wave timescales (see channel/timevarying):
// errors arrive in bursts when the surface image swings destructive.  A
// short block code plus an interleaver that spreads each codeword across the
// packet converts those bursts into correctable scattered errors -- a
// protocol-level extension the paper's modest throughputs leave room for.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitops.hpp"

namespace pab::phy {

// --- Hamming(7,4): corrects any single bit error per 7-bit codeword ---------

// Encode 4 data bits -> 7 coded bits.  Input length must be a multiple of 4.
[[nodiscard]] Bits hamming74_encode(std::span<const std::uint8_t> data);

// Decode 7-bit codewords -> 4 data bits each, correcting single-bit errors.
// Input length must be a multiple of 7.
[[nodiscard]] Bits hamming74_decode(std::span<const std::uint8_t> coded);

// Number of coded bits for `data_bits` of payload.
[[nodiscard]] constexpr std::size_t hamming74_coded_size(std::size_t data_bits) {
  return data_bits / 4 * 7;
}

// --- Block interleaver --------------------------------------------------------

// Write row-wise into a `rows` x ceil(n/rows) matrix, read column-wise.
// A burst of up to `rows` consecutive channel errors lands in distinct
// codewords after de-interleaving.
[[nodiscard]] Bits interleave(std::span<const std::uint8_t> bits, std::size_t rows);
[[nodiscard]] Bits deinterleave(std::span<const std::uint8_t> bits, std::size_t rows);

// --- Robust-mode pipeline ------------------------------------------------------

// data bits -> Hamming(7,4) -> interleave over 7 rows, so a burst of up to 7
// channel errors hits 7 distinct codewords.  Pads data to a multiple of 4
// with zeros; the caller carries the original length.
[[nodiscard]] Bits fec_protect(std::span<const std::uint8_t> data);

// Inverse pipeline; returns `data_bits` decoded bits.
[[nodiscard]] Bits fec_recover(std::span<const std::uint8_t> coded,
                               std::size_t data_bits);

// On-air size of a protected payload.
[[nodiscard]] std::size_t fec_coded_size(std::size_t data_bits);

}  // namespace pab::phy
