// The pluggable modulation-scheme seam: the one uplink modulator and the one
// uplink receiver.
//
// Everything above phy (core::LinkSimulator, sim::Session, mac rate control)
// talks to the uplink PHY through this header instead of hard-wiring FM0:
//   * SchemeDescriptor -- static per-scheme facts (bits/symbol, occupied
//     bandwidth, decode floor) that the rate-control ladder and the
//     modulation-response cache key on;
//   * scheme_waveform_into -- modulate [standard preamble + data bits] into
//     per-sample switch states;
//   * SchemeDemodulator -- the matching receiver (phy::Workspace caches one
//     per operating point).
//
// Seam ownership rules (DESIGN.md §14):
//   * kFm0 is pinned to absolute goldens (tests/test_scheme.cpp): the switch
//     stream against a reference FM0 expansion and the DemodResult against
//     exact recorded doubles, so adding a scheme can never drift fig7/fig8.
//   * Every scheme obeys the Arena/Workspace zero-allocation discipline:
//     scratch from the caller's arena, outputs resize-in-place only.
//   * Every scheme fills DemodResult::quality (EVM/MER/CN0) next to snr_db.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/arena.hpp"
#include "dsp/iir.hpp"
#include "dsp/signal.hpp"
#include "phy/fm0.hpp"
#include "phy/modem.hpp"
#include "phy/scheme_id.hpp"

namespace pab::obs {
class Counter;
class Histogram;
}  // namespace pab::obs

namespace pab::phy {

// Static facts about a scheme at a data bitrate R.  The factors are exact
// consequences of the symbol geometry (see phy/fsk.hpp for the tone plan).
struct SchemeDescriptor {
  SchemeId id = SchemeId::kFm0;
  int bits_per_symbol = 1;
  // Decode floor [dB]: the SNR below which the scheme stops decoding
  // (FM0 ~2 dB per Fig. 7; the FSK banks need more margin for noncoherent
  // orthogonal detection, more again for 4 tones).
  double decode_floor_db = 2.0;
  // Occupied acoustic bandwidth = bandwidth_factor * R.
  double bandwidth_factor = 2.0;
  // Peak reflection-switch toggle rate = switch_rate_factor * R; the
  // recto-piezo's bandwidth-efficiency derating is a function of this.
  double switch_rate_factor = 2.0;

  [[nodiscard]] double occupied_bandwidth_hz(double bitrate) const {
    return bandwidth_factor * bitrate;
  }
  // The FM0-equivalent bitrate whose chip rate matches this scheme's peak
  // switch rate: what core::modulation_states must be evaluated at so the
  // front end's sideband derating is honest.  Identity for kFm0 (so the
  // sim-layer modulation cache keys are unchanged for the default scheme).
  [[nodiscard]] double effective_bitrate(double bitrate) const {
    return switch_rate_factor * bitrate / 2.0;
  }
};

[[nodiscard]] const SchemeDescriptor& scheme_descriptor(SchemeId id);

// On-air sample count of [uplink preamble + n_data_bits] for `scheme`.
[[nodiscard]] std::size_t scheme_waveform_length(SchemeId scheme,
                                                 std::size_t n_data_bits,
                                                 double bitrate,
                                                 double sample_rate);

// Modulate [uplink preamble + data_bits] into per-sample switch states.
// The preamble is FM0 chips from line level -1; kFm0 continues that chip
// stream through the data, the FSK schemes switch to the tone plan of
// phy/fsk.hpp (a partial trailing symbol is zero-padded).  Chip c holds
// samples [c*spc, (c+1)*spc) with spc = sample_rate / (2 * bitrate), so chip
// boundaries land on fractional sample positions exactly as with the MCU's
// integer clock dividers.  out.size() must equal scheme_waveform_length(...);
// scratch is released before returning.
void scheme_waveform_into(SchemeId scheme,
                          std::span<const std::uint8_t> data_bits,
                          double bitrate, double sample_rate,
                          std::span<SwitchState> out, dsp::Arena& scratch);

// Allocating form of scheme_waveform_into.
[[nodiscard]] std::vector<SwitchState> scheme_waveform(
    SchemeId scheme, std::span<const std::uint8_t> data_bits, double bitrate,
    double sample_rate);

// One demodulator operating point: scheme + front-end config.  Member-wise
// equality lets phy::Workspace cache one SchemeDemodulator per point.
struct SchemeConfig {
  SchemeId scheme = SchemeId::kFm0;
  DemodConfig demod;

  [[nodiscard]] bool operator==(const SchemeConfig&) const = default;
};

// The uplink receiver, paper section 5.1b: down-convert at the carrier,
// Butterworth low-pass, envelope, preamble correlation for packet detection,
// and the two-level channel estimate on the preamble chips, then the
// scheme's payload decoder -- FM0's soft-chip maximum-likelihood decode
// (optionally decision-directed equalized) or the FSK Goertzel tone bank.
// Every scheme keeps the FM0 uplink preamble on air, so detection, channel
// estimation and the `phy.demod.*` counters and stage timers are shared.
//
// Errors come back as Expected: kNoPreamble, kDecodeFailure, and
// kInvalidArgument when the capture has fewer than 2 samples per FM0 chip or
// any envelope sample is NaN or infinite.
// The *_into forms carve every intermediate waveform from `scratch` and
// release it before returning; decoded bits land in out.bits, which only
// allocates when its capacity grows, so steady-state decodes allocate
// nothing (the optional equalizer pass still allocates in its solve).  On
// error, `out` holds no meaningful result.
class SchemeDemodulator {
 public:
  // Checks the config and designs the receiver low-pass once.
  explicit SchemeDemodulator(SchemeConfig config);

  // Demodulate `n_bits` data bits that follow the uplink preamble in a
  // passband hydrophone capture at `sample_rate` (= config().demod's).
  [[nodiscard]] Expected<bool> demodulate_into(std::span<const double> passband,
                                               double sample_rate,
                                               std::size_t n_bits,
                                               dsp::Arena& scratch,
                                               DemodResult& out) const;
  // Same, from an already down-converted envelope.
  [[nodiscard]] Expected<bool> demodulate_envelope_into(
      std::span<const double> envelope, double envelope_rate,
      std::size_t n_bits, dsp::Arena& scratch, DemodResult& out) const;

  // One-off forms on a private arena; results equal the *_into forms'.
  [[nodiscard]] Expected<DemodResult> demodulate(const dsp::Signal& passband,
                                                 std::size_t n_bits) const;
  [[nodiscard]] Expected<DemodResult> demodulate_envelope(
      std::span<const double> envelope, double envelope_rate,
      std::size_t n_bits) const;

  [[nodiscard]] const SchemeConfig& config() const { return config_; }

 private:
  // Count the attempt, find the preamble and estimate the two-level channel.
  // Detection takes the first |corr| maximum of the windowed Pearson
  // correlation (dsp::pearson_peak) over the starts after which
  // `packet_samples` still fit, then applies the detect threshold.  Fills
  // out.{start_sample, preamble_corr, channel_amp, mid_level} and returns
  // the signed half-swing (negative: an anti-phase backscatter component
  // inverted the levels).
  [[nodiscard]] Expected<double> acquire(std::span<const double> envelope,
                                         double samples_per_chip,
                                         std::size_t packet_samples,
                                         dsp::Arena& scratch,
                                         DemodResult& out) const;
  // Payload decoders: fill out.{bits, snr_db, quality} from the envelope
  // after the preamble, which ends at fractional index `payload_start`.
  [[nodiscard]] Expected<bool> decode_fm0(std::span<const double> envelope,
                                          double payload_start,
                                          double samples_per_chip, double amp,
                                          std::size_t n_bits,
                                          dsp::Arena& scratch,
                                          DemodResult& out) const;
  [[nodiscard]] Expected<bool> decode_fsk(std::span<const double> envelope,
                                          double envelope_rate,
                                          double payload_start,
                                          std::size_t n_bits,
                                          dsp::Arena& scratch,
                                          DemodResult& out) const;
  // Count a payload decode failure and return its error.
  [[nodiscard]] Error decode_failure(const char* what) const;

  SchemeConfig config_;
  Chips preamble_chips_;
  // Designed once at construction (designing per call would allocate in the
  // hot path).
  dsp::BiquadCascade lowpass_;
  // Resolved once at construction from config.demod.metrics (null = off).
  obs::Histogram* t_downconvert_ = nullptr;
  obs::Histogram* t_correlate_ = nullptr;
  obs::Histogram* t_chanest_ = nullptr;
  obs::Histogram* t_equalize_ = nullptr;
  obs::Counter* n_attempts_ = nullptr;
  obs::Counter* n_ok_ = nullptr;
  obs::Counter* n_no_preamble_ = nullptr;
  obs::Counter* n_decode_failures_ = nullptr;
  obs::Counter* n_rescored_ = nullptr;
};

}  // namespace pab::phy
