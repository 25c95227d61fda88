// Communication metrology: BER and SINR estimation.
//
// SNR follows the paper's method (section 6.1a): "We computed the signal
// power as the squared channel estimate, and computed the noise power as the
// squared difference between the received signal and the transmitted signal
// multiplied by the channel estimate."
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/bitops.hpp"

namespace pab::phy {

// Fraction of differing bits.  Sizes must match.
[[nodiscard]] double bit_error_rate(std::span<const std::uint8_t> sent,
                                    std::span<const std::uint8_t> received);

// SINR [dB] of stream `rx` against the known chip sequence `ref` (+/-1):
// least squares with intercept, rx = h*ref + c + e, where the intercept
// absorbs the un-modulated carrier pedestal beneath a backscatter stream.
// Signal is |h|^2; everything in e (noise plus interference from a colliding
// transmission) is impairment.  This is the quantity Fig. 10 reports before
// and after MIMO projection.
[[nodiscard]] double measure_sinr_db(std::span<const std::complex<double>> rx,
                                     std::span<const double> ref);

}  // namespace pab::phy
