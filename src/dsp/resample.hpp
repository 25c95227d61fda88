// Delayed-accumulate kernel: the image-method channel's echo placement.
#pragma once

#include <span>

#include "dsp/signal.hpp"

namespace pab::dsp {

// Accumulate `gain * y`, delayed by a fractional `delay_samples` (linear
// interpolation), into `acc`, which the caller has zero-initialized (or
// already holds prior taps) and sized to at least floor(delay) + |y| + 1
// samples -- size it with the channel's apply_taps_length.  The complex gain
// carries a multipath echo's amplitude and carrier phase rotation.
void add_delayed_scaled_into(std::span<cplx> acc, std::span<const cplx> y,
                             double delay_samples, cplx gain);

}  // namespace pab::dsp
