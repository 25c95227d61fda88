#include "circuit/storage.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pab::circuit {

Supercapacitor::Supercapacitor(double capacitance_f, double initial_v)
    : capacitance_(capacitance_f), voltage_(initial_v) {
  require(capacitance_f > 0.0, "Supercapacitor: capacitance must be positive");
  require(initial_v >= 0.0, "Supercapacitor: negative initial voltage");
}

void Supercapacitor::step(double dt, double p_in, double p_out, double v_ceiling) {
  require(dt >= 0.0, "Supercapacitor: negative dt");
  require(p_in >= 0.0 && p_out >= 0.0, "Supercapacitor: negative power");
  // Energy bookkeeping: E = 1/2 C V^2.  Charging is cut off at the rectifier
  // ceiling; discharge floors at zero.
  double energy = 0.5 * capacitance_ * voltage_ * voltage_;
  double net = p_in;
  if (voltage_ >= v_ceiling) net = 0.0;  // rectifier can no longer push charge
  energy += (net - p_out) * dt;
  energy = std::max(energy, 0.0);
  voltage_ = std::sqrt(2.0 * energy / capacitance_);
  if (net > 0.0) voltage_ = std::min(voltage_, std::max(v_ceiling, 0.0));
}

double Supercapacitor::stored_energy_j() const {
  return 0.5 * capacitance_ * voltage_ * voltage_;
}

}  // namespace pab::circuit
