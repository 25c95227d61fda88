// Frequency-domain backscatter (M-FSK) for the uplink.
//
// Instead of FM0's level coding, the node toggles its reflection switch at a
// per-symbol subcarrier rate, so the hydrophone envelope carries a square-wave
// tone whose frequency encodes the symbol (Akhtar et al., "Frequency-based
// Ultrasonic Backscatter Modulation", see PAPERS.md).  The on-air format keeps
// the standard FM0 uplink preamble -- so packet detection and two-level
// channel estimation reuse the proven correlation front end -- and switches to
// tone symbols for the payload:
//
//   [ FM0 preamble chips @ 2*bitrate ][ tone symbols @ symbol_rate ... ]
//
// Tone k sits at (2 + k) * symbol_rate, i.e. an integer 2+k cycles per symbol
// window, so the Goertzel bins are orthogonal over the exact window and
// detection is a per-symbol argmax over the dsp/goertzel bank.  Everything is
// allocation-free in steady state: scratch is carved from the caller's Arena.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/arena.hpp"
#include "phy/modem.hpp"
#include "phy/scheme_id.hpp"

namespace pab::phy {

// Symbol geometry of an M-FSK operating point.  `bitrate` is the *data* bit
// rate (the ladder's currency); the symbol rate is bitrate / bits_per_symbol.
struct FskParams {
  double bitrate = 1000.0;
  double sample_rate = 96000.0;
  int bits_per_symbol = 1;  // 1 -> FSK2, 2 -> FSK4

  [[nodiscard]] int tone_count() const { return 1 << bits_per_symbol; }
  [[nodiscard]] double symbol_rate() const {
    return bitrate / static_cast<double>(bits_per_symbol);
  }
  // Tone k at (2 + k) * symbol_rate: integer cycles per symbol window.
  [[nodiscard]] double tone_hz(int k) const {
    return (2.0 + static_cast<double>(k)) * symbol_rate();
  }
  [[nodiscard]] double max_tone_hz() const { return tone_hz(tone_count() - 1); }
  [[nodiscard]] std::size_t symbols_for(std::size_t n_bits) const {
    const auto bps = static_cast<std::size_t>(bits_per_symbol);
    return (n_bits + bps - 1) / bps;
  }

  [[nodiscard]] static FskParams from(SchemeId id, double bitrate,
                                      double sample_rate);
};

// On-air sample count for [preamble + n_bits payload] at `params`.
[[nodiscard]] std::size_t fsk_waveform_length(const FskParams& params,
                                              std::size_t n_bits);

// Modulate [standard uplink preamble + data_bits] into per-sample switch
// states.  out.size() must equal fsk_waveform_length(params, data_bits.size());
// scratch holds the preamble chips for the call's duration.  Partial trailing
// symbols are zero-padded (the demodulator truncates to n_bits).
void fsk_waveform_into(const FskParams& params,
                       std::span<const std::uint8_t> data_bits,
                       std::span<SwitchState> out, dsp::Arena& scratch);

// Goertzel-bank demodulator for the format above.  Runs the same receiver
// front end as BackscatterDemodulator (phy/receiver.hpp: detection, channel
// estimate, `phy.demod.*` instruments) and the same zero-allocation
// discipline, and adds only the tone decoder; `config.bitrate` is the data
// bit rate and the low-pass cutoff is widened to pass the top tone
// regardless of `lowpass_factor`.
class FskDemodulator {
 public:
  FskDemodulator(DemodConfig config, int bits_per_symbol);

  [[nodiscard]] Expected<bool> demodulate_into(std::span<const double> passband,
                                               double sample_rate,
                                               std::size_t n_bits,
                                               dsp::Arena& scratch,
                                               DemodResult& out) const;
  [[nodiscard]] Expected<bool> demodulate_envelope_into(
      std::span<const double> envelope, double envelope_rate,
      std::size_t n_bits, dsp::Arena& scratch, DemodResult& out) const;

  [[nodiscard]] const DemodConfig& config() const { return config_; }
  [[nodiscard]] const FskParams& params() const { return params_; }

 private:
  DemodConfig config_;
  FskParams params_;
  detail::ReceiverFrontEnd front_;
};

}  // namespace pab::phy
