#include "circuit/rectopiezo.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::circuit {

RectoPiezo::RectoPiezo(piezo::Transducer transducer, RectoPiezoConfig config)
    : transducer_(std::move(transducer)),
      config_(config),
      network_(MatchingNetwork::design(
          transducer_.thevenin_impedance(config.match_frequency_hz),
          config.rectifier.input_resistance, config.match_frequency_hz)),
      rectifier_(config.rectifier) {
  require(config.match_frequency_hz > 0.0, "RectoPiezo: match frequency must be positive");
  require(config.scatter_efficiency > 0.0 && config.scatter_efficiency <= 1.0,
          "RectoPiezo: scatter efficiency must be in (0,1]");
}

double RectoPiezo::delivered_power_w(double freq_hz, double p_pa) const {
  const cplx zs = transducer_.thevenin_impedance(freq_hz);
  const double v_th = transducer_.thevenin_voltage(p_pa, freq_hz);
  const double p_avail = v_th * v_th / (8.0 * zs.real());
  return p_avail * network_.power_transfer(
                       freq_hz, zs, cplx(config_.rectifier.input_resistance, 0.0));
}

double RectoPiezo::rectifier_input_voltage(double freq_hz, double p_pa) const {
  const cplx zs = transducer_.thevenin_impedance(freq_hz);
  const double v_th = transducer_.thevenin_voltage(p_pa, freq_hz);
  return network_.load_voltage(freq_hz, v_th, zs,
                               cplx(config_.rectifier.input_resistance, 0.0));
}

double RectoPiezo::rectified_open_voltage(double freq_hz, double p_pa) const {
  return rectifier_.open_circuit_dc(rectifier_input_voltage(freq_hz, p_pa));
}

double RectoPiezo::harvested_dc_power(double freq_hz, double p_pa) const {
  const double v_in = rectifier_input_voltage(freq_hz, p_pa);
  return rectifier_.dc_power(delivered_power_w(freq_hz, p_pa), v_in);
}

cplx RectoPiezo::gamma_reflective(double freq_hz) const {
  // Switch closed: the piezo terminals are shorted, Z_L = 0 (paper
  // section 3.2): Gamma = -Zs*/Zs, magnitude 1.
  return reflection_coefficient(cplx(0.0, 0.0),
                                transducer_.thevenin_impedance(freq_hz));
}

cplx RectoPiezo::gamma_absorptive(double freq_hz) const {
  const cplx z_in = network_.input_impedance(
      freq_hz, cplx(config_.rectifier.input_resistance, 0.0));
  return reflection_coefficient(z_in, transducer_.thevenin_impedance(freq_hz));
}

double RectoPiezo::modulation_depth(double freq_hz) const {
  const cplx dg = gamma_reflective(freq_hz) - gamma_absorptive(freq_hz);
  const double capture = std::sqrt(transducer_.aperture_area() / (4.0 * kPi));
  const double assist = amplitude_ratio_from_db(config_.assist_gain_db);
  return 0.5 * assist * capture * std::sqrt(config_.scatter_efficiency) *
         transducer_.mechanical_response(freq_hz) * std::abs(dg);
}

cplx RectoPiezo::scatter_gain(double freq_hz, bool reflective) const {
  // Resonant scatterer: the re-radiated field rolls off with the mechanical
  // resonance curve in addition to the circuit-level reflection coefficient.
  // A battery-assisted reflection amplifier multiplies the re-radiated
  // amplitude by sqrt(G).
  const cplx gamma =
      reflective ? gamma_reflective(freq_hz) : gamma_absorptive(freq_hz);
  const double capture = std::sqrt(transducer_.aperture_area() / (4.0 * kPi));
  const double assist = amplitude_ratio_from_db(config_.assist_gain_db);
  return assist * capture * std::sqrt(config_.scatter_efficiency) *
         transducer_.mechanical_response(freq_hz) * gamma;
}

double RectoPiezo::assist_power_w(double p_pa) const {
  if (config_.assist_gain_db <= 0.0) return 0.0;
  require(p_pa >= 0.0, "assist_power: negative pressure");
  constexpr double kRhoC = 1.48e6;
  constexpr double kAmplifierBiasW = 0.5e-3;
  const double g = power_ratio_from_db(config_.assist_gain_db);
  const double captured =
      p_pa * p_pa / (2.0 * kRhoC) * transducer_.aperture_area();
  return kAmplifierBiasW + (g - 1.0) * captured;
}

double RectoPiezo::bandwidth_efficiency(double carrier_hz, double bitrate) const {
  require(bitrate > 0.0, "bandwidth_efficiency: bitrate must be positive");
  const double d0 = modulation_depth(carrier_hz);
  if (d0 <= 0.0) return 1.0;
  // Sample the normalized modulation depth across the FM0 main lobe
  // (roughly +/- the chip rate = 2x bitrate), weighted toward the carrier
  // where most of the energy sits.
  const double b = bitrate;
  const double offsets[] = {0.0, 0.5 * b, -0.5 * b, b, -b, 2.0 * b, -2.0 * b};
  const double weights[] = {4.0, 2.0, 2.0, 1.5, 1.5, 0.5, 0.5};
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < std::size(offsets); ++i) {
    const double f = carrier_hz + offsets[i];
    if (f <= 0.0) continue;
    num += weights[i] * std::min(1.0, modulation_depth(f) / d0);
    den += weights[i];
  }
  return den > 0.0 ? num / den : 1.0;
}

RectoPiezo make_recto_piezo(double f_match_hz, double f_mech_hz) {
  RectoPiezoConfig cfg;
  cfg.match_frequency_hz = f_match_hz;
  return RectoPiezo(piezo::make_node_transducer(f_mech_hz), cfg);
}

}  // namespace pab::circuit
