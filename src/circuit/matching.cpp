#include "circuit/matching.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::circuit {

cplx Reactance::series_z(double freq_hz) const {
  return kind == Kind::kInductor ? inductor_z(value, freq_hz)
                                 : capacitor_z(value, freq_hz);
}

Reactance element_for_reactance(double x_ohms, double freq_hz) {
  require(freq_hz > 0.0, "element_for_reactance: frequency must be positive");
  Reactance e;
  const double w = kTwoPi * freq_hz;
  if (x_ohms >= 0.0) {
    e.kind = Reactance::Kind::kInductor;
    e.value = x_ohms / w;
  } else {
    e.kind = Reactance::Kind::kCapacitor;
    e.value = -1.0 / (x_ohms * w);
  }
  return e;
}

Reactance element_for_susceptance(double b_siemens, double freq_hz) {
  require(freq_hz > 0.0, "element_for_susceptance: frequency must be positive");
  Reactance e;
  const double w = kTwoPi * freq_hz;
  if (b_siemens >= 0.0) {
    e.kind = Reactance::Kind::kCapacitor;
    e.value = b_siemens / w;
  } else {
    e.kind = Reactance::Kind::kInductor;
    e.value = -1.0 / (b_siemens * w);
  }
  return e;
}

namespace {

// Shunt admittance of an element at `freq_hz`.
cplx shunt_y(const Reactance& e, double freq_hz) {
  const cplx z = e.series_z(freq_hz);
  return 1.0 / z;
}

}  // namespace

cplx MatchingNetwork::input_impedance(double freq_hz, cplx z_load) const {
  switch (topology_) {
    case Topology::kNone:
      return z_load;
    case Topology::kSeriesFirst: {
      // source -- [series] --+-- load, shunt across load.
      const cplx y = shunt_y(shunt_, freq_hz) + 1.0 / z_load;
      return series_.series_z(freq_hz) + 1.0 / y;
    }
    case Topology::kShuntFirst: {
      // shunt across source node, series to load.
      const cplx branch = series_.series_z(freq_hz) + z_load;
      const cplx y = shunt_y(shunt_, freq_hz) + 1.0 / branch;
      return 1.0 / y;
    }
  }
  return z_load;
}

double MatchingNetwork::power_transfer(double freq_hz, cplx z_source,
                                       cplx z_load) const {
  const cplx zin = input_impedance(freq_hz, z_load);
  if (zin.real() <= 0.0 && std::abs(zin) < 1e-12) return 0.0;
  return 1.0 - reflected_power_fraction(zin, z_source);
}

double MatchingNetwork::load_voltage(double freq_hz, double v_th, cplx z_source,
                                     cplx z_load) const {
  require(v_th >= 0.0, "load_voltage: negative source voltage");
  const double rs = z_source.real();
  const double rl = z_load.real();
  if (rs <= 0.0 || rl <= 0.0) return 0.0;
  const double p_avail = v_th * v_th / (8.0 * rs);
  const double p_del = p_avail * power_transfer(freq_hz, z_source, z_load);
  return std::sqrt(2.0 * p_del * rl);
}

MatchingNetwork MatchingNetwork::design(cplx z_source, double r_load, double f0) {
  require(z_source.real() > 0.0, "MatchingNetwork: source must have positive resistance");
  require(r_load > 0.0, "MatchingNetwork: load must be positive");
  require(f0 > 0.0, "MatchingNetwork: design frequency must be positive");

  const double rs = z_source.real();
  const double xs = z_source.imag();
  MatchingNetwork n;

  if (r_load >= rs) {
    // Series-first: Zin = jX1 + (R_L || jB2) must equal Rs - jXs.
    const double q = std::sqrt(r_load / rs - 1.0);
    const double b2 = q / r_load;            // shunt susceptance across load
    const double x1 = q * rs - xs;           // series reactance at source
    n.topology_ = Topology::kSeriesFirst;
    n.series_ = element_for_reactance(x1, f0);
    n.shunt_ = element_for_susceptance(b2, f0);
  } else {
    // Shunt-first: Yin = jB1 + 1/(R_L + jX2) must equal 1/(Rs - jXs).
    const double mag2 = rs * rs + xs * xs;
    const double gt = rs / mag2;              // target conductance
    const double bt = xs / mag2;              // target susceptance
    const double x2sq = r_load / gt - r_load * r_load;
    require(x2sq >= 0.0, "MatchingNetwork: load too large for shunt-first match");
    const double x2 = std::sqrt(x2sq);
    const double b1 = bt + x2 / (r_load * r_load + x2 * x2);
    n.topology_ = Topology::kShuntFirst;
    n.series_ = element_for_reactance(x2, f0);
    n.shunt_ = element_for_susceptance(b1, f0);
  }
  return n;
}

MatchingNetwork MatchingNetwork::none() { return MatchingNetwork{}; }

}  // namespace pab::circuit
