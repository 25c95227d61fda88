#include "core/projector.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pab::core {

Projector::Projector(piezo::Transducer transducer, double drive_v)
    : transducer_(std::move(transducer)), drive_v_(drive_v) {
  require(drive_v >= 0.0, "Projector: negative drive voltage");
}

Projector Projector::ideal(double pressure_pa) {
  require(pressure_pa >= 0.0, "Projector: negative pressure");
  Projector p;
  p.flat_pressure_pa_ = pressure_pa;
  return p;
}

double Projector::pressure_at_1m(double freq_hz) const {
  if (flat_pressure_pa_ >= 0.0) return flat_pressure_pa_;
  return transducer_->pressure_amplitude_at_1m(drive_v_, freq_hz);
}

std::size_t Projector::cw_envelope_length(double duration_s, double sample_rate,
                                          double lead_silence_s) {
  require(sample_rate > 0.0, "cw_envelope: sample rate must be positive");
  require(duration_s >= 0.0 && lead_silence_s >= 0.0, "cw_envelope: negative time");
  return static_cast<std::size_t>(lead_silence_s * sample_rate) +
         static_cast<std::size_t>(duration_s * sample_rate);
}

void Projector::cw_envelope_into(double freq_hz, double sample_rate,
                                 double lead_silence_s,
                                 std::span<dsp::cplx> out) const {
  require(sample_rate > 0.0, "cw_envelope: sample rate must be positive");
  const auto lead = static_cast<std::size_t>(lead_silence_s * sample_rate);
  require(lead <= out.size(), "cw_envelope_into: lead exceeds output");
  const dsp::cplx amp(pressure_at_1m(freq_hz), 0.0);
  for (std::size_t i = 0; i < lead; ++i) out[i] = dsp::cplx(0.0, 0.0);
  for (std::size_t i = lead; i < out.size(); ++i) out[i] = amp;
}

dsp::BasebandSignal Projector::cw_envelope(double freq_hz, double duration_s,
                                           double sample_rate,
                                           double lead_silence_s) const {
  dsp::BasebandSignal s;
  s.sample_rate = sample_rate;
  s.carrier_hz = freq_hz;
  s.samples.resize(cw_envelope_length(duration_s, sample_rate, lead_silence_s));
  cw_envelope_into(freq_hz, sample_rate, lead_silence_s, s.samples);
  return s;
}

dsp::BasebandSignal Projector::query_envelope(const phy::DownlinkQuery& query,
                                              const phy::PwmParams& pwm,
                                              double freq_hz, double sample_rate,
                                              double post_cw_s) const {
  const auto keying = phy::pwm_encode(query.to_bits(), pwm, sample_rate);
  dsp::BasebandSignal s;
  s.sample_rate = sample_rate;
  s.carrier_hz = freq_hz;
  const double amp = pressure_at_1m(freq_hz);
  s.samples.reserve(keying.size() +
                    static_cast<std::size_t>(post_cw_s * sample_rate));
  for (std::uint8_t on : keying)
    s.samples.emplace_back(on ? amp : 0.0, 0.0);
  const auto tail = static_cast<std::size_t>(post_cw_s * sample_rate);
  s.samples.insert(s.samples.end(), tail, dsp::cplx(amp, 0.0));
  return s;
}

}  // namespace pab::core
