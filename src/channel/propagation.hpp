// Applying a multipath channel to sample-domain signals.
#pragma once

#include <span>
#include <vector>

#include "channel/noise.hpp"
#include "channel/tank.hpp"
#include "dsp/arena.hpp"
#include "dsp/signal.hpp"

namespace pab::channel {

// Baseband-equivalent propagation of a complex envelope at carrier f_c:
// y(t) = sum_k g_k e^{-j 2 pi f_c tau_k} x(t - tau_k).  The envelope delay is
// applied at sample resolution and the carrier phase as a complex rotation,
// which is exact for narrowband signals.
[[nodiscard]] dsp::BasebandSignal apply_taps_baseband(const dsp::BasebandSignal& x,
                                                      const std::vector<PathTap>& taps);

// ---- into-output kernels (allocation-free; wrapped by the above) ----

// Output length of apply_taps_baseband for an n-sample input:
// max_k(floor(tau_k * fs) + n + 1), or 0 when `taps` is empty.
[[nodiscard]] std::size_t apply_taps_length(std::size_t n, double sample_rate,
                                            const std::vector<PathTap>& taps);

// y.size() must equal apply_taps_length(...); `y` is fully written (zero-fill
// + accumulate on the direct path, overwrite on the FFT path) and must not
// alias `x`.  Dense tap sets over long signals switch to overlap-save fast
// convolution (dsp/fftconv.hpp) when the cost model favours it; `scratch`
// backs the dense impulse response and FFT buffers.  The overload without an
// arena uses a thread-local fallback.
void apply_taps_baseband_into(std::span<const dsp::cplx> x, double sample_rate,
                              double carrier_hz, const std::vector<PathTap>& taps,
                              std::span<dsp::cplx> y, dsp::Arena& scratch);
void apply_taps_baseband_into(std::span<const dsp::cplx> x, double sample_rate,
                              double carrier_hz, const std::vector<PathTap>& taps,
                              std::span<dsp::cplx> y);

// Arena convenience: propagate a baseband view into fresh arena scratch,
// preserving rate and carrier metadata.
[[nodiscard]] dsp::CplxView apply_taps_baseband(dsp::CplxView x,
                                                const std::vector<PathTap>& taps,
                                                dsp::Arena& arena);

}  // namespace pab::channel
