// Delayed-accumulate utilities: the image-method channel's echo placement.
#pragma once

#include <span>
#include <vector>

#include "dsp/signal.hpp"

namespace pab::dsp {

// Add `y`, delayed by a fractional `delay_samples` (linear interpolation)
// and scaled by `gain`, into `acc` (resizing `acc` as needed).  The
// workhorse of the image-method channel.
void add_delayed_scaled(std::vector<double>& acc, std::span<const double> y,
                        double delay_samples, double gain);

// Complex-envelope variant with a complex per-tap gain (amplitude and carrier
// phase rotation of a multipath echo).
void add_delayed_scaled(std::vector<cplx>& acc, std::span<const cplx> y,
                        double delay_samples, cplx gain);

// ---- into-output kernels (allocation-free; wrapped by the above) ----

// Accumulate `gain * y` delayed by `delay_samples` into `acc`, which the
// caller has zero-initialized (or already holds prior taps) and sized to at
// least floor(delay) + |y| + 1 samples.  Unlike the vector overloads, the
// span never grows -- size it with the channel's apply_taps_length.
void add_delayed_scaled_into(std::span<double> acc, std::span<const double> y,
                             double delay_samples, double gain);
void add_delayed_scaled_into(std::span<cplx> acc, std::span<const cplx> y,
                             double delay_samples, cplx gain);

}  // namespace pab::dsp
