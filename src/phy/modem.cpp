#include "phy/modem.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"
#include "phy/fec.hpp"
#include "phy/scheme.hpp"

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

Expected<UplinkPacket> demodulate_packet(const dsp::Signal& passband,
                                         const DemodConfig& config,
                                         std::size_t payload_len, bool robust) {
  const SchemeDemodulator demod({SchemeId::kFm0, config});
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
