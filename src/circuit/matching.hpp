// L-section impedance matching network synthesis and evaluation.
//
// The node's front end matches the piezoelectric source impedance Z_s to the
// rectifier input so that Z_L = Z_s^* at the design frequency -- maximizing
// both harvested power and backscatter SNR (paper section 3.2).  Designing
// the same network at a *different* center frequency is exactly what makes a
// recto-piezo: the electrical resonance moves within the mechanical passband
// (section 3.3.1, footnote 5).
//
// Topologies (source on the left, real load R_L on the right):
//   kSeriesFirst:  source -- [jX] --+-- load      (needs R_L >= Rs)
//                                   |
//                                  [jB]
//   kShuntFirst:   source --+-- [jX] -- load      (needs R_L <= Rs)
//                           |
//                          [jB]
// Elements are realized as an inductor or capacitor depending on the sign of
// the required reactance/susceptance at the design frequency, so the network
// detunes naturally away from it.
#pragma once

#include "circuit/impedance.hpp"

namespace pab::circuit {

// One reactive element: an L or a C, evaluated at any frequency.
struct Reactance {
  enum class Kind { kInductor, kCapacitor } kind = Kind::kInductor;
  double value = 0.0;  // henry or farad

  // Series impedance of this element at `freq_hz`.
  [[nodiscard]] cplx series_z(double freq_hz) const;
};

// Build an element realizing series reactance `x_ohms` at `freq_hz`.
[[nodiscard]] Reactance element_for_reactance(double x_ohms, double freq_hz);
// Build an element realizing shunt susceptance `b_siemens` at `freq_hz`.
[[nodiscard]] Reactance element_for_susceptance(double b_siemens, double freq_hz);

class MatchingNetwork {
 public:
  enum class Topology { kSeriesFirst, kShuntFirst, kNone };

  MatchingNetwork() = default;

  // Input impedance looking from the source into network + load `z_load`.
  [[nodiscard]] cplx input_impedance(double freq_hz, cplx z_load) const;

  // Fraction of the source's *available* power (|V_th|^2 / 8 Re Z_s) that is
  // delivered into `z_load` through the (lossless) network, in [0, 1].
  // Equals 1 - |Gamma|^2 evaluated at the network input.
  [[nodiscard]] double power_transfer(double freq_hz, cplx z_source, cplx z_load) const;

  // Voltage amplitude across the load for a Thevenin source (v_th, z_source).
  // Computed from delivered power: |V_L| = sqrt(2 P_L Re(Z_L)) for the mostly
  // real rectifier loads used here.
  [[nodiscard]] double load_voltage(double freq_hz, double v_th, cplx z_source,
                                    cplx z_load) const;

  // Synthesize the L-match so that with load `r_load` (real), the input
  // impedance at `f0` equals conj(z_source).  Chooses topology automatically.
  [[nodiscard]] static MatchingNetwork design(cplx z_source, double r_load, double f0);

  // A pass-through "network" (no elements), for unmatched baselines.
  [[nodiscard]] static MatchingNetwork none();

 private:
  Topology topology_ = Topology::kNone;
  Reactance series_{};
  Reactance shunt_{};
};

}  // namespace pab::circuit
