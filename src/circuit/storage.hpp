// Energy storage: the supercapacitor.
//
// The rectified DC charge is stored in a 1000 uF supercapacitor feeding an
// LP5900 LDO whose 1.8 V output drives the MCU (paper section 4.2.1).  The
// node powers up once the capacitor reaches 2.5 V (Fig. 3).  The LDO itself
// lives in the energy model: its quiescent current is
// energy::McuPowerParams::ldo_quiescent_a, and its regulation floor (1.8 V
// output + 0.3 V dropout) is the brown-out voltage of energy::Harvester.
#pragma once

namespace pab::circuit {

class Supercapacitor {
 public:
  explicit Supercapacitor(double capacitance_f = 1000e-6, double initial_v = 0.0);

  // Advance by `dt` seconds with `p_in` watts charging and `p_out` watts
  // drawn.  The capacitor cannot charge above `v_ceiling` (the rectifier's
  // open-circuit DC) and cannot discharge below zero.
  void step(double dt, double p_in, double p_out, double v_ceiling);

  [[nodiscard]] double voltage() const { return voltage_; }
  [[nodiscard]] double stored_energy_j() const;

 private:
  double capacitance_;
  double voltage_;
};

}  // namespace pab::circuit
