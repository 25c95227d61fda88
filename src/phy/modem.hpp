// Backscatter uplink modulator and hydrophone-side software demodulator.
//
// Modulator: maps packet bits to the FM0 switch waveform the node's MCU
// drives onto the backscatter transistors.
//
// Demodulator: the offline receiver chain of paper section 5.1b --
// down-convert at the carrier, Butterworth low-pass, envelope, preamble
// correlation for packet detection, channel (two-level) estimation, soft chip
// integration, and maximum-likelihood FM0 decoding.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/arena.hpp"
#include "dsp/signal.hpp"
#include "phy/fm0.hpp"
#include "phy/packet.hpp"
#include "phy/receiver.hpp"
#include "util/error.hpp"

namespace pab::obs {
class MetricRegistry;
}  // namespace pab::obs

namespace pab::phy {

// --- Modulator ---------------------------------------------------------------

// Per-sample backscatter switch states.
enum class SwitchState : std::int8_t { kAbsorptive = 0, kReflective = 1 };

// FM0-encode `bits` and expand to one switch state per sample at
// `sample_rate`.  Chip boundaries land on fractional sample positions when
// sample_rate/(2*bitrate) is not an integer, exactly as with the MCU's
// integer clock dividers.
[[nodiscard]] std::vector<SwitchState> backscatter_waveform(
    std::span<const std::uint8_t> bits, double bitrate, double sample_rate,
    std::int8_t initial_level = -1);

// Samples the waveform for `n_bits` bits occupies: ceil(2 * n_bits * spc).
[[nodiscard]] std::size_t backscatter_waveform_length(std::size_t n_bits,
                                                      double bitrate,
                                                      double sample_rate);

// Into-output variant: out.size() must equal backscatter_waveform_length;
// the FM0 chips are carved from `scratch`.  The vector overload wraps this.
void backscatter_waveform_into(std::span<const std::uint8_t> bits,
                               double bitrate, double sample_rate,
                               std::int8_t initial_level,
                               std::span<SwitchState> out, dsp::Arena& scratch);

// --- Demodulator --------------------------------------------------------------

struct DemodConfig {
  double carrier_hz = 15000.0;
  double bitrate = 1000.0;
  double sample_rate = 96000.0;  // of the hydrophone capture
  int lowpass_order = 5;
  double lowpass_factor = 2.5;   // cutoff = factor * bitrate
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

class BackscatterDemodulator {
 public:
  explicit BackscatterDemodulator(DemodConfig config);

  // Demodulate `n_bits` data bits that follow the uplink preamble in the
  // passband hydrophone capture.
  [[nodiscard]] Expected<DemodResult> demodulate(const dsp::Signal& passband,
                                                 std::size_t n_bits) const;

  // Same, from an already down-converted complex envelope.
  [[nodiscard]] Expected<DemodResult> demodulate_envelope(
      std::span<const double> envelope, double envelope_rate,
      std::size_t n_bits) const;

  // Zero-allocation variants: all intermediate waveforms (baseband, envelope,
  // correlation, soft chips, Viterbi scratch) are carved from `scratch` and
  // released before returning; decoded bits land in `out.bits`, which only
  // allocates when its capacity grows (steady-state reuse is free).  The
  // Expected<bool> success path carries no heap state; error details may
  // allocate, but a failed decode leaves the trial loop anyway.  The
  // Expected<DemodResult> overloads above are thin wrappers -- results are
  // bit-identical by construction.  The decision-directed equalizer second
  // pass (off by default) still allocates in its matrix solve.
  [[nodiscard]] Expected<bool> demodulate_into(std::span<const double> passband,
                                               double sample_rate,
                                               std::size_t n_bits,
                                               dsp::Arena& scratch,
                                               DemodResult& out) const;
  [[nodiscard]] Expected<bool> demodulate_envelope_into(
      std::span<const double> envelope, double envelope_rate,
      std::size_t n_bits, dsp::Arena& scratch, DemodResult& out) const;

  [[nodiscard]] const DemodConfig& config() const { return config_; }

 private:
  DemodConfig config_;
  // Detection and channel estimation (phy/receiver.hpp); this class adds
  // only the FM0 payload decoder.
  detail::ReceiverFrontEnd front_;
  std::int8_t post_preamble_level_;
};

// Convenience: demodulate and reassemble a full uplink packet with
// `payload_len` payload bytes; validates the CRC.  With `robust` the body is
// Hamming(7,4)+interleaver protected (node robust mode).
[[nodiscard]] Expected<UplinkPacket> demodulate_packet(
    const dsp::Signal& passband, const DemodConfig& config,
    std::size_t payload_len, bool robust = false);

}  // namespace pab::phy
