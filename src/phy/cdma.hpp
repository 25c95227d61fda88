// Code-division multiple access baseline.
//
// Paper footnote 4: "CDMA requires the same overall bandwidth as standard
// FDMA since it uses a spreading code at a higher rate than the transmitted
// signals, thus requiring a larger frequency (as it is a spread spectrum
// technology)."  This module implements the baseline so the claim can be
// measured: Walsh-Hadamard spreading over a single carrier, correlation
// despreading, and the resulting rate/bandwidth/near-far numbers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitops.hpp"

namespace pab::phy {

// Walsh-Hadamard code of `length` (power of two), row `index`.
// Rows are mutually orthogonal over one code period.
[[nodiscard]] std::vector<std::int8_t> walsh_code(std::size_t length,
                                                  std::size_t index);

// Spread data chips (+/-1) by a code: output rate = input rate * code length.
[[nodiscard]] std::vector<std::int8_t> cdma_spread(
    std::span<const std::int8_t> data_chips, std::span<const std::int8_t> code);

// Correlate a received soft stream against a code: one soft data chip per
// code period.
[[nodiscard]] std::vector<double> cdma_despread(std::span<const double> rx,
                                                std::span<const std::int8_t> code);

// Occupied (null-to-null main lobe) bandwidth of a binary-modulated
// backscatter stream at `symbol_rate` symbols/s: ~2x the switching rate.
[[nodiscard]] double occupied_bandwidth_hz(double symbol_rate);

// Cross-correlation magnitude between two codes with a relative chip offset
// (codes are only orthogonal at zero offset -- the synchronization burden of
// backscatter CDMA).
[[nodiscard]] double code_cross_correlation(std::span<const std::int8_t> a,
                                            std::span<const std::int8_t> b,
                                            std::size_t offset);

}  // namespace pab::phy
