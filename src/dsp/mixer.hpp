// Down-conversion: the receiver front end of section 5.1b.
#pragma once

#include <span>

#include "dsp/arena.hpp"
#include "dsp/signal.hpp"

namespace pab::dsp {

class BiquadCascade;

// out[i] = 2 * x[i] * exp(-j*2*pi*fc*i/fs); out.size() must equal x.size().
// The result must be low-pass filtered (and optionally decimated) to remove
// the 2*fc image; downconvert_filtered does both.
void downconvert_into(std::span<const double> x, double sample_rate,
                      double carrier_hz, std::span<cplx> out);

// The receiver front end with a caller-owned low-pass cascade (build it once
// with butterworth_lowpass and reuse it; designing a filter allocates):
// down-convert, low-pass, and decimate by `decim` entirely in arena scratch.
// Returns a view into the arena valid until the enclosing frame ends.
[[nodiscard]] CplxView downconvert_filtered(std::span<const double> x,
                                            double sample_rate, double carrier_hz,
                                            const BiquadCascade& lowpass,
                                            std::size_t decim, Arena& arena);

// Value form of the same front end: designs the Butterworth low-pass at
// `lowpass_hz` (order `order`) and runs the arena form on a local arena.
[[nodiscard]] BasebandSignal downconvert_filtered(const Signal& x, double carrier_hz,
                                                  double lowpass_hz, int order = 5,
                                                  std::size_t decim = 1);

}  // namespace pab::dsp
