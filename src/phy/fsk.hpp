// Frequency-domain backscatter (M-FSK) tone plan for the uplink.
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
// detection is a per-symbol argmax over the dsp/goertzel bank.  The modulator
// and receiver for this format are scheme_waveform_into and
// SchemeDemodulator (phy/scheme.hpp).
#pragma once

#include <cstddef>

#include "phy/scheme_id.hpp"
#include "util/error.hpp"

namespace pab::phy {

// Symbol geometry of an M-FSK operating point.  `bitrate` is the *data* bit
// rate (the ladder's currency); the symbol rate is bitrate / bits_per_symbol.
struct FskParams {
  double bitrate = 1000.0;
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

  // The tone plan of an FSK scheme; throws for any other SchemeId.
  [[nodiscard]] static FskParams from(SchemeId id, double bitrate) {
    require(id == SchemeId::kFsk2 || id == SchemeId::kFsk4,
            "FskParams: not an FSK scheme");
    return {bitrate, id == SchemeId::kFsk4 ? 2 : 1};
  }
};

}  // namespace pab::phy
