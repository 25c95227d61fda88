// Carrier generation, mixing, and down-conversion.
#pragma once

#include <span>
#include <vector>

#include "dsp/arena.hpp"
#include "dsp/signal.hpp"

namespace pab::dsp {

// Real sine carrier: amplitude * sin(2*pi*f*t + phase), floor(duration_s *
// fs) samples.
[[nodiscard]] Signal make_tone(double freq_hz, double amplitude, double duration_s,
                               double sample_rate, double phase = 0.0);

// Quadrature down-conversion: y[n] = x[n] * exp(-j*2*pi*fc*n/fs).  The result
// must be low-pass filtered (and optionally decimated) by the caller to remove
// the 2*fc image.
[[nodiscard]] BasebandSignal downconvert(const Signal& x, double carrier_hz);

// Full receiver front-end step: down-convert, Butterworth low-pass at
// `lowpass_hz` (order `order`), and decimate by `decim`.
[[nodiscard]] BasebandSignal downconvert_filtered(const Signal& x, double carrier_hz,
                                                  double lowpass_hz, int order = 5,
                                                  std::size_t decim = 1);

// Upconvert a complex baseband signal back to a real passband signal:
// y[n] = Re(x[n]) cos(w n) - Im(x[n]) sin(w n), w = 2*pi*fc/fs.
[[nodiscard]] Signal upconvert(const BasebandSignal& x, double carrier_hz);

// ---- into-output kernels (allocation-free; the overloads above wrap them
// or compute the same arithmetic in the same order) ----

// out[i] = 2 * x[i] * exp(-j*2*pi*fc*i/fs); out.size() must equal x.size().
void downconvert_into(std::span<const double> x, double sample_rate,
                      double carrier_hz, std::span<cplx> out);

// Arena variant of downconvert_filtered with a caller-owned low-pass cascade
// (build it once with butterworth_lowpass and reuse it; designing a filter
// allocates): down-convert, low-pass, and decimate entirely in arena
// scratch.  Returns a view into the arena valid until the enclosing frame
// ends.
class BiquadCascade;
[[nodiscard]] CplxView downconvert_filtered(std::span<const double> x,
                                            double sample_rate, double carrier_hz,
                                            const BiquadCascade& lowpass,
                                            std::size_t decim, Arena& arena);

}  // namespace pab::dsp
