// The acoustic projector (downlink transmitter).
//
// Models the paper's setup of section 5.1a: an in-house cylinder transducer
// driven by a power amplifier.  Emits complex-envelope waveforms whose
// amplitude is the pressure at the 1 m reference distance [Pa]; propagation
// to any point in the tank is applied by the channel layer.
#pragma once

#include <optional>
#include <span>

#include "dsp/signal.hpp"
#include "phy/packet.hpp"
#include "phy/pwm.hpp"
#include "piezo/transducer.hpp"

namespace pab::core {

class Projector {
 public:
  // Physical projector: pressure follows the transducer's TVR at each
  // frequency for the given drive amplitude [V].
  Projector(piezo::Transducer transducer, double drive_v);

  // Idealized flat source producing `pressure_pa` at 1 m regardless of
  // frequency -- models re-matching the power amplifier to the transducer for
  // each operating frequency, as the paper does per configuration.
  [[nodiscard]] static Projector ideal(double pressure_pa);

  // Pressure amplitude [Pa] at 1 m when transmitting at `freq_hz`.
  [[nodiscard]] double pressure_at_1m(double freq_hz) const;

  [[nodiscard]] double drive_voltage() const { return drive_v_; }

  // Continuous-wave envelope of `duration_s` (constant amplitude), preceded
  // by `lead_silence_s` of zeros.
  [[nodiscard]] dsp::BasebandSignal cw_envelope(double freq_hz, double duration_s,
                                                double sample_rate,
                                                double lead_silence_s = 0.0) const;

  // Samples cw_envelope would produce, and the into-output variant
  // (out.size() must equal cw_envelope_length).
  [[nodiscard]] static std::size_t cw_envelope_length(double duration_s,
                                                      double sample_rate,
                                                      double lead_silence_s = 0.0);
  void cw_envelope_into(double freq_hz, double sample_rate,
                        double lead_silence_s, std::span<dsp::cplx> out) const;

  // PWM on/off-keyed downlink query envelope followed by `post_cw_s` of
  // continuous carrier (the energy/backscatter phase after the query).
  [[nodiscard]] dsp::BasebandSignal query_envelope(const phy::DownlinkQuery& query,
                                                   const phy::PwmParams& pwm,
                                                   double freq_hz, double sample_rate,
                                                   double post_cw_s) const;

 private:
  Projector() = default;

  std::optional<piezo::Transducer> transducer_;
  double drive_v_ = 0.0;
  double flat_pressure_pa_ = -1.0;  // >= 0 selects the ideal flat model
};

}  // namespace pab::core
