// Envelope detection.
//
// The PAB node's downlink receiver is a passive envelope detector feeding a
// Schmitt trigger (paper section 4.2.1); the software models the same chain:
// rectification followed by low-pass smoothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pab::dsp {

// Full-wave rectifier + single-pole RC low-pass with time constant `tau_s`.
// This mirrors the diode/capacitor detector on the node's front end.
[[nodiscard]] std::vector<double> envelope_rc(std::span<const double> x,
                                              double sample_rate, double tau_s);

// Two-level slicer with hysteresis, modeling a Schmitt trigger.  Returns a
// 0/1 level per sample.  Thresholds are fractions of the max envelope value
// (e.g. 0.55 high / 0.45 low).
[[nodiscard]] std::vector<std::uint8_t> schmitt_slice(std::span<const double> envelope,
                                                      double high_fraction = 0.55,
                                                      double low_fraction = 0.45);

}  // namespace pab::dsp
