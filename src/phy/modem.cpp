#include "phy/modem.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "phy/equalizer.hpp"
#include "phy/fec.hpp"

namespace pab::phy {

LinkQuality link_quality_from_error_ratio(double error_over_signal,
                                          double bandwidth_hz) {
  LinkQuality q;
  if (error_over_signal > 0.0 && std::isfinite(error_over_signal)) {
    q.mer_db = std::clamp(-10.0 * std::log10(error_over_signal), -kMerClampDb,
                          kMerClampDb);
    q.evm_rms = std::sqrt(error_over_signal);
  } else {
    q.mer_db = kMerClampDb;
    q.evm_rms = 0.0;
  }
  q.cn0_dbhz =
      q.mer_db + (bandwidth_hz > 0.0 ? 10.0 * std::log10(bandwidth_hz) : 0.0);
  return q;
}

LinkQuality link_quality_from_snr(double snr_db, double bandwidth_hz) {
  const double mer = std::clamp(snr_db, -kMerClampDb, kMerClampDb);
  LinkQuality q;
  q.mer_db = mer;
  q.evm_rms = std::pow(10.0, -mer / 20.0);
  q.cn0_dbhz =
      mer + (bandwidth_hz > 0.0 ? 10.0 * std::log10(bandwidth_hz) : 0.0);
  return q;
}

std::size_t backscatter_waveform_length(std::size_t n_bits, double bitrate,
                                        double sample_rate) {
  require(bitrate > 0.0 && sample_rate > 0.0, "backscatter_waveform: bad rates");
  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_bits * 2) * spc));
}

void backscatter_waveform_into(std::span<const std::uint8_t> bits,
                               double bitrate, double sample_rate,
                               std::int8_t initial_level,
                               std::span<SwitchState> out, dsp::Arena& scratch) {
  require(out.size() == backscatter_waveform_length(bits.size(), bitrate, sample_rate),
          "backscatter_waveform_into: output size mismatch");
  const auto frame = scratch.frame();
  auto chips = scratch.alloc<std::int8_t>(bits.size() * 2);
  fm0_encode_into(bits, initial_level, chips);
  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto chip = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(i) / spc), chips.size() - 1);
    out[i] = chips[chip] > 0 ? SwitchState::kReflective : SwitchState::kAbsorptive;
  }
}

std::vector<SwitchState> backscatter_waveform(std::span<const std::uint8_t> bits,
                                              double bitrate, double sample_rate,
                                              std::int8_t initial_level) {
  std::vector<SwitchState> out(
      backscatter_waveform_length(bits.size(), bitrate, sample_rate),
      SwitchState::kAbsorptive);
  dsp::Arena scratch(bits.size() * 2 + dsp::Arena::kAlign);
  backscatter_waveform_into(bits, bitrate, sample_rate, initial_level, out, scratch);
  return out;
}

BackscatterDemodulator::BackscatterDemodulator(DemodConfig config)
    : config_(config),
      front_(config_, /*min_cutoff_hz=*/0.0),
      // Level at the end of the preamble: the last chip emitted.
      post_preamble_level_(front_.preamble_chips().back()) {}

Expected<bool> BackscatterDemodulator::demodulate_envelope_into(
    std::span<const double> envelope, double envelope_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  const auto arena_frame = scratch.frame();
  const double spc = front_.samples_per_chip(envelope_rate);
  const std::size_t n_pre_chips = front_.preamble_chips().size();
  const std::size_t n_data_chips = 2 * n_bits;
  const auto needed = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_pre_chips + n_data_chips) * spc));
  const auto acquired = front_.acquire(envelope, spc, needed, scratch);
  if (!acquired.ok()) return acquired.error();
  const double amp = acquired.value().amp;
  const double mid = acquired.value().mid;

  // Soft data chips, normalized to +/-1 nominal.
  auto soft = scratch.alloc<double>(n_data_chips);
  detail::integrate_chips_into(envelope, acquired.value().payload_start, spc,
                               soft);
  for (double& v : soft) v = (v - mid) / amp;

  out.bits.resize(n_bits);  // reuses capacity in steady state
  fm0_decode_ml_into(soft, post_preamble_level_, out.bits, scratch);

  if (config_.decision_directed_equalizer) {
    // Second pass: treat the first decision as training, equalize the chip
    // stream, decode again.  With a mostly-correct first pass this cancels
    // the reverberation tail that limits chip SNR.  (This optional pass
    // still allocates: the normal-equation solve is vector-based.)
    const obs::ScopedTimer timer(front_.equalize_timer());
    const Chips ref_chips = fm0_encode(out.bits, post_preamble_level_);
    std::vector<std::complex<double>> rx(soft.size());
    for (std::size_t c = 0; c < soft.size(); ++c) rx[c] = {soft[c], 0.0};
    std::vector<double> ref(ref_chips.begin(), ref_chips.end());
    LinearEqualizer eq;
    if (rx.size() >= static_cast<std::size_t>(4 * eq.tap_count())) {
      eq.train(rx, ref);
      const auto eq_out = eq.apply(rx);
      for (std::size_t c = 0; c < soft.size(); ++c) soft[c] = eq_out[c].real();
      out.bits = fm0_decode_ml(soft, post_preamble_level_);
    }
  }

  // SNR per the paper: re-encode the decoded bits, compare chip-level.
  auto ref = scratch.alloc<std::int8_t>(n_data_chips);
  fm0_encode_into(out.bits, post_preamble_level_, ref);
  double noise = 0.0;
  for (std::size_t c = 0; c < n_data_chips; ++c) {
    const double e = soft[c] - static_cast<double>(ref[c]);
    noise += e * e;
  }
  noise = noise / static_cast<double>(n_data_chips) * amp * amp;
  out.snr_db = noise > 0.0
                   ? std::clamp(10.0 * std::log10(amp * amp / noise), -60.0, 60.0)
                   : 60.0;
  // Soft metrics: the normalized chips are the symbol estimates (nominal
  // +/-1), so noise/amp^2 is exactly the error-vector power per unit signal
  // and the FM0 MER coincides with the paper's SNR estimator (pre-clamp).
  // Detection bandwidth = the chip rate.
  out.quality = link_quality_from_error_ratio(noise / (amp * amp),
                                              2.0 * config_.bitrate);
  front_.accept(acquired.value(), out);
  return true;
}

Expected<DemodResult> BackscatterDemodulator::demodulate_envelope(
    std::span<const double> envelope, double envelope_rate,
    std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_envelope_into(envelope, envelope_rate, n_bits,
                                           scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<bool> BackscatterDemodulator::demodulate_into(
    std::span<const double> passband, double sample_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  const auto arena_frame = scratch.frame();
  const dsp::SignalView env = front_.envelope(passband, sample_rate, scratch);
  return demodulate_envelope_into(env.samples, env.sample_rate, n_bits, scratch,
                                  out);
}

Expected<DemodResult> BackscatterDemodulator::demodulate(
    const dsp::Signal& passband, std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_into(passband.samples, passband.sample_rate, n_bits,
                                  scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<UplinkPacket> demodulate_packet(const dsp::Signal& passband,
                                         const DemodConfig& config,
                                         std::size_t payload_len, bool robust) {
  const BackscatterDemodulator demod(config);
  const std::size_t body_bits =
      UplinkPacket::bits_on_air(payload_len, /*include_preamble=*/false);
  const std::size_t n_bits = robust ? fec_coded_size(body_bits) : body_bits;
  auto r = demod.demodulate(passband, n_bits);
  if (!r.ok()) return r.error();
  // Packet reassembly + CRC validation (timed as the decode chain's last
  // stage when the config carries a registry).
  obs::Histogram* t_crc = config.metrics != nullptr
                              ? &config.metrics->histogram("phy.demod.crc_seconds")
                              : nullptr;
  const obs::ScopedTimer timer(t_crc);
  Bits body = std::move(r.value().bits);
  if (robust) body = fec_recover(body, body_bits);
  auto packet = UplinkPacket::from_bits(body, /*has_preamble=*/false);
  if (!packet) {
    if (config.metrics != nullptr)
      config.metrics->counter("phy.demod.crc_mismatch").add();
    return Error{ErrorCode::kCrcMismatch, "packet CRC failed"};
  }
  return *packet;
}

}  // namespace pab::phy
