// Recto-piezo: the paper's programmable-resonance backscatter front end.
//
// A recto-piezo is a piezoelectric transducer whose *electrical* resonance is
// set by the impedance-matching network between the piezo and the rectifier
// (paper section 3.3.1).  Designing the L-match at different center
// frequencies places different sensors on different FDMA channels while the
// mechanical resonance acts as the outer band-pass (footnote 5).
//
// This class composes: Transducer (BVD source) -> MatchingNetwork -> Rectifier
// and exposes the three quantities the system is built on:
//   1. rectified DC voltage vs frequency        (energy harvesting, Fig. 3)
//   2. reflection coefficients of the two backscatter states (Eq. 2)
//   3. the backscatter modulation depth vs frequency (SNR, Figs. 8/10)
#pragma once

#include "circuit/impedance.hpp"
#include "circuit/matching.hpp"
#include "circuit/rectifier.hpp"
#include "piezo/transducer.hpp"

namespace pab::circuit {

struct RectoPiezoConfig {
  double match_frequency_hz = 15000.0;  // electrical (FDMA) resonance
  RectifierParams rectifier{};
  // Fraction of intercepted power re-radiated in the reflective state
  // (backscatter is lossy; paper section 3.2 "Testing the Waters").
  double scatter_efficiency = 0.6;
  // Battery-assisted reflection amplification [dB] (paper section 8 future
  // work: "battery-assisted backscatter implementations from RF designs" --
  // a reflection amplifier boosts the re-radiated wave beyond |Gamma| = 1 at
  // the cost of battery power).  0 dB = passive battery-free operation.
  double assist_gain_db = 0.0;
};

class RectoPiezo {
 public:
  RectoPiezo(piezo::Transducer transducer, RectoPiezoConfig config);

  // --- Energy harvesting ----------------------------------------------------
  // Electrical power [W] delivered into the rectifier input for an incident
  // pressure amplitude `p_pa` at `freq_hz`.
  [[nodiscard]] double delivered_power_w(double freq_hz, double p_pa) const;
  // Voltage amplitude [V] at the rectifier input.
  [[nodiscard]] double rectifier_input_voltage(double freq_hz, double p_pa) const;
  // Unloaded rectified DC voltage [V] - the quantity plotted in Fig. 3.
  [[nodiscard]] double rectified_open_voltage(double freq_hz, double p_pa) const;
  // DC power [W] available to charge the supercapacitor.
  [[nodiscard]] double harvested_dc_power(double freq_hz, double p_pa) const;

  // --- Backscatter ------------------------------------------------------------
  // Reflection coefficient with the switch closed (terminals shorted, Z_L=0):
  // the reflective '1' state.  |Gamma| = 1 for a lossless piezo.
  [[nodiscard]] cplx gamma_reflective(double freq_hz) const;
  // Reflection coefficient with the switch open: the piezo sees the matching
  // network + rectifier, absorbing maximally at the match frequency.
  [[nodiscard]] cplx gamma_absorptive(double freq_hz) const;
  // Differential backscatter amplitude (modulation depth) per unit incident
  // pressure, at 1 m: the signal the hydrophone actually decodes.
  [[nodiscard]] double modulation_depth(double freq_hz) const;
  // Complex scatter gain of a state (re-radiated pressure at 1 m per unit
  // incident pressure): sqrt(A_eff/4pi) * sqrt(eta_scatter) * Gamma_state.
  [[nodiscard]] cplx scatter_gain(double freq_hz, bool reflective) const;
  // Fraction of the FM0 modulation energy the resonant front end actually
  // radiates at `bitrate` bps: higher bitrates spread sidebands beyond the
  // recto-piezo's electrical bandwidth, where the modulation depth collapses
  // ("the efficiency of the recto-piezo reduces as the frequency moves from
  // its resonance", paper section 6.1b).  Returns a value in (0, 1].
  [[nodiscard]] double bandwidth_efficiency(double carrier_hz, double bitrate) const;

  [[nodiscard]] const piezo::Transducer& transducer() const { return transducer_; }
  [[nodiscard]] const MatchingNetwork& network() const { return network_; }
  [[nodiscard]] const Rectifier& rectifier() const { return rectifier_; }
  [[nodiscard]] double match_frequency() const { return config_.match_frequency_hz; }
  [[nodiscard]] bool battery_assisted() const { return config_.assist_gain_db > 0.0; }
  // Extra electrical power a reflection amplifier burns to boost the
  // re-radiated wave, for an incident pressure amplitude `p_pa`:
  // (G - 1) * captured power + bias.
  [[nodiscard]] double assist_power_w(double p_pa) const;

 private:
  piezo::Transducer transducer_;
  RectoPiezoConfig config_;
  MatchingNetwork network_;
  Rectifier rectifier_;
};

// Convenience factory: a node front end electrically matched at `f_match`
// using the paper's cylinder transducer (mechanical resonance `f_mech`).
[[nodiscard]] RectoPiezo make_recto_piezo(double f_match_hz,
                                          double f_mech_hz = 16500.0);

}  // namespace pab::circuit
