// Cold-start and steady-state harvesting dynamics.
//
// Combines the recto-piezo DC output with the supercapacitor and power-up
// logic: during cold start the pull-down transistor is open so all harvested
// energy charges the capacitor (paper section 4.2.1); once the capacitor
// crosses the power-up threshold (2.5 V, Fig. 3) the MCU boots and begins
// drawing its state-dependent load.
#pragma once

#include <cstdint>

#include "circuit/rectopiezo.hpp"
#include "circuit/storage.hpp"
#include "energy/ledger.hpp"
#include "energy/mcu.hpp"

namespace pab::energy {

// MCU power-state transition caused by one harvesting step.
enum class PowerEvent : std::uint8_t {
  kNone = 0,
  kPowerUp,   // capacitor crossed the power-up threshold; MCU boots
  kBrownOut,  // capacitor sagged below brown-out; MCU resets
};

// What one step actually booked, so callers (NodeLifecycle) can mirror the
// exact joules into the Timeline event log without re-deriving the
// loads-only-after-power-up rule.
struct HarvestStep {
  PowerEvent event = PowerEvent::kNone;
  double harvested_j = 0.0;
  double consumed_j = 0.0;  // idle load actually drawn (0 before power-up)
};

class Harvester {
 public:
  explicit Harvester(circuit::Supercapacitor cap) : cap_(cap) {}

  // Advance by `dt` with `p_harvest` watts of DC input (already through the
  // rectifier), `p_load` watts of digital load, and `v_ceiling` the
  // rectifier's open-circuit voltage at the current incident level.  Returns
  // the power-state transition and the joules booked into the ledger.
  HarvestStep step(double dt, double p_harvest, double p_load,
                   double v_ceiling);

  [[nodiscard]] bool powered_up() const { return powered_up_; }
  [[nodiscard]] double capacitor_voltage() const { return cap_.voltage(); }
  [[nodiscard]] const EnergyLedger& ledger() const { return ledger_; }
  EnergyLedger& ledger() { return ledger_; }

  // Time to first power-up of the node's 1000 uF supercapacitor for constant
  // harvest conditions; returns a negative value if the node can never reach
  // the threshold (ceiling below threshold or zero harvested power).
  [[nodiscard]] static double time_to_power_up(double p_harvest,
                                               double v_ceiling);

  // Capacitor voltage at which the MCU boots (Fig. 3).  The capacitor charges
  // to at most the rectified open-circuit voltage, so a node whose rectifier
  // stays below it never powers up.
  static constexpr double kPowerUpThresholdV = 2.5;

 private:
  // The LDO's regulation floor (1.8 V output + 0.3 V dropout): below it
  // the MCU resets.
  static constexpr double kBrownOutV = 2.1;

  circuit::Supercapacitor cap_;
  EnergyLedger ledger_;
  bool powered_up_ = false;
};

}  // namespace pab::energy
