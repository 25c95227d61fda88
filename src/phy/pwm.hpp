// PWM line coding for the downlink (projector -> node).
//
// PAB "adopts the Pulse Width Modulation (PWM) scheme on the downlink since
// it can be decoded using simple envelope detection, thus minimizing power
// consumption during backscatter and since it provides ample opportunities
// for energy harvesting" (section 3.2).  As in the implementation, "the '1'
// bit is twice as long as the '0' bit" (section 5.1a).
//
// Symbol structure (carrier ON = high, OFF = low):
//   '0':  high for 1 unit, low for 1 unit
//   '1':  high for 2 units, low for 1 unit
// The node's MCU measures the interval between carrier-onset edges to
// classify bits (the paper's MCU times edge interrupts, section 4.2.2; we
// time the onset edge because echo build-up in a reverberant tank can
// partially cancel the carrier mid-symbol while the off->on onset stays
// sharp).  A leading sync symbol arms the timer and a trailing delimiter
// terminates the last symbol.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitops.hpp"

namespace pab::phy {

struct PwmParams {
  double unit_s = 5e-3;  // one PWM time unit [s]
};

// On/off keying envelope (one entry per sample, 1 = carrier on).
[[nodiscard]] std::vector<std::uint8_t> pwm_encode(std::span<const std::uint8_t> bits,
                                                   const PwmParams& params,
                                                   double sample_rate);

// Decode a sliced 0/1 envelope into bits via onset-edge interval timing,
// mirroring the MCU's timer-interrupt decoder.  Intervals within
// +/- `tolerance` (fractional) of the nominal '0'/'1' interval are accepted;
// others are dropped.
[[nodiscard]] Bits pwm_decode(std::span<const std::uint8_t> sliced,
                              const PwmParams& params, double sample_rate,
                              double tolerance = 0.25);

}  // namespace pab::phy
