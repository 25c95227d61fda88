#include "energy/mcu.hpp"

#include <cstddef>

#include "util/error.hpp"

namespace pab::energy {

double McuPowerModel::state_power_w(McuState state) const {
  const double v = params_.supply_v;
  switch (state) {
    case McuState::kOff:
      return 0.0;
    case McuState::kLpm3:
      return v * (params_.lpm3_current_a + params_.ldo_quiescent_a);
    case McuState::kIdle:
      return v * (params_.lpm3_current_a + params_.idle_pin_current_a +
                  params_.ldo_quiescent_a);
    case McuState::kActive:
      return v * (params_.active_current_a + params_.ldo_quiescent_a);
  }
  return 0.0;
}

double McuPowerModel::backscatter_power_w(double bitrate) const {
  require(bitrate >= 0.0, "backscatter_power: negative bitrate");
  // FM0 toggles at every bit boundary plus mid-bit for 0s: ~1.5 toggles/bit
  // on random data, bounded by 2.
  const double toggles_per_s = 1.5 * bitrate;
  return state_power_w(McuState::kActive) +
         toggles_per_s * params_.switch_toggle_energy_j;
}

double McuPowerModel::idle_power_w() const {
  return state_power_w(McuState::kIdle);
}

double McuPowerModel::decode_energy_j(std::size_t n_bits, double unit_s) const {
  require(unit_s > 0.0, "decode_energy: unit must be positive");
  // Mean symbol = 2.5 units (half zeros, half ones); per edge the MCU wakes
  // for ~50 us of active time, sleeping in idle otherwise.
  const double per_bit_s = 2.5 * unit_s;
  const double wake_s = 50e-6;
  const double sleep_s = per_bit_s > wake_s ? per_bit_s - wake_s : 0.0;
  const double per_bit_j = wake_s * state_power_w(McuState::kActive) +
                           sleep_s * state_power_w(McuState::kIdle);
  return per_bit_j * static_cast<double>(n_bits);
}

}  // namespace pab::energy
