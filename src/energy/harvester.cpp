#include "energy/harvester.hpp"

#include "util/error.hpp"

namespace pab::energy {

Harvester::Harvester(circuit::Supercapacitor cap, HarvesterParams params)
    : cap_(cap), params_(params) {
  require(params.power_up_threshold_v > params.brown_out_v,
          "Harvester: threshold must exceed brown-out");
}

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

  if (!powered_up_ && cap_.voltage() >= params_.power_up_threshold_v) {
    powered_up_ = true;
    out.event = PowerEvent::kPowerUp;
  } else if (powered_up_ && cap_.voltage() < params_.brown_out_v) {
    powered_up_ = false;
    out.event = PowerEvent::kBrownOut;
  }
  return out;
}

double Harvester::time_to_power_up(double p_harvest, double v_ceiling,
                                   double capacitance_f, double threshold_v) {
  require(capacitance_f > 0.0, "time_to_power_up: capacitance must be positive");
  if (p_harvest <= 0.0 || v_ceiling < threshold_v) return -1.0;
  const double energy = 0.5 * capacitance_f * threshold_v * threshold_v;
  return energy / p_harvest;
}

}  // namespace pab::energy
