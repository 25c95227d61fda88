// Modulation-scheme identifiers for the backscatter uplink.
//
// This header is deliberately tiny (enum + names, no other phy includes) so
// plain-data config structs in higher layers (sim::Waveform, campaign axes)
// can carry a scheme without pulling the whole modem chain into their
// includes.  The descriptor table and the modulate/demodulate entry points
// live in phy/scheme.hpp.
#pragma once

#include <cstdint>
#include <string_view>

namespace pab::phy {

// Wire-stable identifiers: the campaign spec serializes these as numeric axis
// values and the record columns key on them, so the values must never be
// renumbered -- append only.
enum class SchemeId : std::uint8_t {
  kFm0 = 0,   // FM0 line code, ML Viterbi decode (the paper's uplink)
  kFsk2 = 1,  // binary frequency-domain backscatter, Goertzel bank detect
  kFsk4 = 2,  // 4-ary FSK, 2 bits/symbol
};

inline constexpr std::size_t kSchemeCount = 3;

[[nodiscard]] constexpr std::string_view to_string(SchemeId id) {
  switch (id) {
    case SchemeId::kFm0: return "fm0";
    case SchemeId::kFsk2: return "fsk2";
    case SchemeId::kFsk4: return "fsk4";
  }
  return "unknown";
}

}  // namespace pab::phy
