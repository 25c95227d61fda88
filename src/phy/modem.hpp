// Uplink modem types shared by every modulation scheme: the per-sample switch
// states the node drives, the receiver's operating point (DemodConfig) and
// its per-packet result (DemodResult, LinkQuality).  The modulator and the
// receiver themselves live in phy/scheme.hpp.
#pragma once

#include <cstdint>

#include "dsp/signal.hpp"
#include "phy/packet.hpp"
#include "util/error.hpp"

namespace pab::obs {
class MetricRegistry;
}  // namespace pab::obs

namespace pab::phy {

// Per-sample backscatter switch states.
enum class SwitchState : std::int8_t { kAbsorptive = 0, kReflective = 1 };

struct DemodConfig {
  double carrier_hz = 15000.0;
  double bitrate = 1000.0;
  double sample_rate = 96000.0;  // of the hydrophone capture
  double detect_threshold = 0.5; // min normalized preamble correlation
  // Decision-directed equalization: after the first ML decode, re-encode the
  // decision, train a chip-spaced MMSE equalizer on the whole packet, and
  // decode again.  Helps in reverberant tanks at high bitrates where
  // inter-chip interference dominates.
  bool decision_directed_equalizer = false;
  // Optional sink for per-stage decode timings and outcome counters
  // (`phy.demod.*`).  Null disables instrumentation; the registry must
  // outlive every demodulator built from this config.
  obs::MetricRegistry* metrics = nullptr;

  // Member-wise equality: lets a phy::Workspace cache one receiver per
  // operating point instead of rebuilding it every trial.
  [[nodiscard]] bool operator==(const DemodConfig&) const = default;
};

// Per-packet soft link-quality metrics, computed alongside the SNR estimate
// by every scheme demodulator (see phy/scheme.hpp).  The trio mirrors the
// classic receiver metric suite: EVM (rms error vector, normalized to the
// nominal symbol magnitude), MER (signal power over error-vector power, dB),
// and C/N0 (MER referred to the scheme's detection bandwidth, dB-Hz).  All
// three are always finite; MER is clamped to [-60, 60] dB like the SNR
// estimate, and a zero-error decode reads EVM 0 / MER 60.
struct LinkQuality {
  double evm_rms = 0.0;
  double mer_db = 0.0;
  double cn0_dbhz = 0.0;

  [[nodiscard]] bool operator==(const LinkQuality&) const = default;
};

// MER clamp bound shared by every estimator (matches the SNR clamp).
inline constexpr double kMerClampDb = 60.0;

// Derive the metric trio from an error-to-signal power ratio and a detection
// bandwidth: EVM = sqrt(err/sig), MER = -10 log10(err/sig) clamped, C/N0 =
// MER + 10 log10(bandwidth).  `error_over_signal` <= 0 means an error-free
// decode (EVM 0, MER at the clamp).
[[nodiscard]] LinkQuality link_quality_from_error_ratio(double error_over_signal,
                                                        double bandwidth_hz);

// Model-level variant: metrics implied by a known SNR/SINR in `bandwidth_hz`
// (MER = clamped SNR).  Used where the signal path is abstracted away, e.g.
// the field trial's slot-SINR ledger.
[[nodiscard]] LinkQuality link_quality_from_snr(double snr_db,
                                                double bandwidth_hz);

struct DemodResult {
  Bits bits;                  // decoded bits following the preamble
  std::size_t start_sample = 0;  // envelope index of the packet start
  double channel_amp = 0.0;   // estimated half-swing between the two states
  double mid_level = 0.0;     // estimated level midpoint
  double snr_db = 0.0;        // per the paper's estimator, over the payload
  double preamble_corr = 0.0; // peak normalized correlation
  LinkQuality quality;        // EVM/MER/CN0 alongside the SNR estimate
};

// Convenience: FM0-demodulate and reassemble a full uplink packet with
// `payload_len` payload bytes; validates the CRC.  With `robust` the body is
// Hamming(7,4)+interleaver protected (node robust mode).
[[nodiscard]] Expected<UplinkPacket> demodulate_packet(
    const dsp::Signal& passband, const DemodConfig& config,
    std::size_t payload_len, bool robust = false);

}  // namespace pab::phy
