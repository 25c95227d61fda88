// Multi-stage rectifier (voltage multiplier) model.
//
// The node "employs a multi-stage rectifier in order to passively amplify the
// voltage to the level that is needed for activating the digital components"
// (paper section 4.2.1).  We model an N-stage Dickson/Villard multiplier with
// Schottky diodes: each stage contributes up to 2(V_pk - V_d) of DC, and the
// conversion efficiency collapses as the input amplitude approaches the diode
// drop -- which is what shapes the power-up frontier in Figs. 3 and 9.
#pragma once

namespace pab::circuit {

struct RectifierParams {
  int stages = 3;              // multiplier stages
  double diode_drop_v = 0.25;  // Schottky forward drop [V]
  // Equivalent fundamental-frequency input resistance [ohm].  Multi-stage
  // multipliers at microwatt power levels present ~100 kohm; together with
  // the piezo source impedance this sets the loaded Q (selectivity) of the
  // recto-piezo's electrical resonance.
  double input_resistance = 100000.0;
};

class Rectifier {
 public:
  explicit Rectifier(RectifierParams p = {});

  // Unloaded (open-circuit) DC output for a sinusoidal input of amplitude
  // `v_in` [V]: max(0, 2 N (v_in - v_d)).
  [[nodiscard]] double open_circuit_dc(double v_in) const;

  // AC->DC conversion efficiency for input amplitude `v_in`, in [0, 1):
  // eta = ((v_in - v_d)/v_in)^2 clamped at 0.  Captures the small-signal
  // dead zone below the diode drop.
  [[nodiscard]] double efficiency(double v_in) const;

  // DC power delivered to the storage element for `p_in` watts of RF/acoustic
  // electrical power arriving at input amplitude `v_in`.
  [[nodiscard]] double dc_power(double p_in, double v_in) const;

  [[nodiscard]] const RectifierParams& params() const { return params_; }

 private:
  RectifierParams params_;
};

}  // namespace pab::circuit
