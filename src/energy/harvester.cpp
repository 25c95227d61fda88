#include "energy/harvester.hpp"

#include "util/error.hpp"

namespace pab::energy {

HarvestStep Harvester::step(double dt, double p_harvest, double p_load,
                            double v_ceiling) {
  require(dt >= 0.0, "Harvester: negative dt");
  HarvestStep out;
  // Loads only draw after power-up.
  const double p_out = powered_up_ ? p_load : 0.0;
  cap_.step(dt, p_harvest, p_out, v_ceiling);
  out.harvested_j = p_harvest * dt;
  out.consumed_j = p_out * dt;
  ledger_.add(Category::kHarvested, out.harvested_j);
  if (p_out > 0.0) ledger_.add(Category::kIdle, out.consumed_j);

  if (!powered_up_ && cap_.voltage() >= kPowerUpThresholdV) {
    powered_up_ = true;
    out.event = PowerEvent::kPowerUp;
  } else if (powered_up_ && cap_.voltage() < kBrownOutV) {
    powered_up_ = false;
    out.event = PowerEvent::kBrownOut;
  }
  return out;
}

bool Harvester::sustains_power_up(double v_open, double p_harvest) {
  return v_open >= kPowerUpThresholdV &&
         p_harvest >= McuPowerModel{}.idle_power_w();
}

double Harvester::time_to_power_up(double p_harvest, double v_ceiling) {
  constexpr double kCapacitanceF = 1000e-6;
  if (p_harvest <= 0.0 || v_ceiling < kPowerUpThresholdV) return -1.0;
  const double energy =
      0.5 * kCapacitanceF * kPowerUpThresholdV * kPowerUpThresholdV;
  return energy / p_harvest;
}

}  // namespace pab::energy
