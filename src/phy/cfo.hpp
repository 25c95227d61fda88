// Carrier frequency offset (CFO) estimation.
//
// "In contrast to RF backscatter where the reader is typically full-duplex,
// PAB uses a separate transmitter (projector) and receiver (hydrophone).
// Hence, the receiver observes a CFO due to the different oscillators"
// (paper footnote 12).  The receiver estimates the residual rotation from a
// segment that is known to carry a constant reflection state (or the
// preamble).
#pragma once

#include <complex>
#include <span>

namespace pab::phy {

// Estimate the frequency offset [Hz] of a nominally-constant complex
// baseband segment via the average phase increment between successive
// samples (robust to amplitude modulation as long as it is slower than fs).
[[nodiscard]] double estimate_cfo_hz(std::span<const std::complex<double>> segment,
                                     double sample_rate);

}  // namespace pab::phy
