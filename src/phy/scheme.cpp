#include "phy/scheme.hpp"

#include <algorithm>
#include <cmath>

#include "phy/fsk.hpp"
#include "phy/packet.hpp"

namespace pab::phy {

const SchemeDescriptor& scheme_descriptor(SchemeId id) {
  // FSK factors follow the tone plan in phy/fsk.hpp: FSK2 tops out at the
  // 3R tone (toggle rate 6R, occupied band ~2*(3R + R)); FSK4 at symbol rate
  // R/2 tops out at 2.5R (toggle rate 5R, band ~2*(2.5R + R/2)).
  static const SchemeDescriptor kTable[kSchemeCount] = {
      {SchemeId::kFm0, /*bits_per_symbol=*/1, /*decode_floor_db=*/2.0,
       /*bandwidth_factor=*/2.0, /*switch_rate_factor=*/2.0},
      {SchemeId::kFsk2, /*bits_per_symbol=*/1, /*decode_floor_db=*/5.0,
       /*bandwidth_factor=*/8.0, /*switch_rate_factor=*/6.0},
      {SchemeId::kFsk4, /*bits_per_symbol=*/2, /*decode_floor_db=*/7.0,
       /*bandwidth_factor=*/6.0, /*switch_rate_factor=*/5.0},
  };
  const auto i = static_cast<std::size_t>(id);
  require(i < kSchemeCount, "scheme_descriptor: unknown scheme");
  return kTable[i];
}

namespace {

// Symbol value of symbol `s` (MSB first over bits_per_symbol bits; bits past
// the payload read as zero padding).
int symbol_value(const FskParams& p, std::span<const std::uint8_t> bits,
                 std::size_t s) {
  int v = 0;
  const auto bps = static_cast<std::size_t>(p.bits_per_symbol);
  for (std::size_t b = 0; b < bps; ++b) {
    const std::size_t idx = s * bps + b;
    v = (v << 1) | (idx < bits.size() ? (bits[idx] & 1) : 0);
  }
  return v;
}

}  // namespace

std::size_t scheme_waveform_length(SchemeId scheme, std::size_t n_data_bits,
                                   double bitrate, double sample_rate) {
  require(bitrate > 0.0 && sample_rate > 0.0, "scheme_waveform: bad rates");
  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  const std::size_t n_pre_bits = uplink_preamble_bits().size();
  if (scheme == SchemeId::kFm0)
    return static_cast<std::size_t>(std::ceil(
        static_cast<double>((n_pre_bits + n_data_bits) * 2) * spc));
  const FskParams p = FskParams::from(scheme, bitrate);
  const double sps = sample_rate / p.symbol_rate();  // samples per symbol
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_pre_bits * 2) * spc +
                static_cast<double>(p.symbols_for(n_data_bits)) * sps));
}

void scheme_waveform_into(SchemeId scheme,
                          std::span<const std::uint8_t> data_bits,
                          double bitrate, double sample_rate,
                          std::span<SwitchState> out, dsp::Arena& scratch) {
  require(out.size() == scheme_waveform_length(scheme, data_bits.size(),
                                               bitrate, sample_rate),
          "scheme_waveform_into: output size mismatch");
  const auto frame = scratch.frame();
  const bool fm0 = scheme == SchemeId::kFm0;
  const pab::Bits& preamble = uplink_preamble_bits();
  const std::size_t n_pre_chips = preamble.size() * 2;
  auto chips = scratch.alloc<std::int8_t>(
      n_pre_chips + (fm0 ? data_bits.size() * 2 : 0));
  fm0_encode_into(preamble, /*initial_level=*/-1, chips.first(n_pre_chips));
  if (fm0)
    fm0_encode_into(data_bits, chips[n_pre_chips - 1],
                    chips.subspan(n_pre_chips));

  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  const double chips_end = static_cast<double>(chips.size()) * spc;
  const auto chip_samples =
      std::min(out.size(), static_cast<std::size_t>(std::ceil(chips_end)));
  for (std::size_t i = 0; i < chip_samples; ++i) {
    const auto chip = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(i) / spc),
        chips.size() - 1);
    out[i] = chips[chip] > 0 ? SwitchState::kReflective
                             : SwitchState::kAbsorptive;
  }
  if (fm0) return;

  const FskParams p = FskParams::from(scheme, bitrate);
  const std::size_t n_sym = p.symbols_for(data_bits.size());
  const double sps = sample_rate / p.symbol_rate();
  for (std::size_t i = chip_samples; i < out.size(); ++i) {
    const double t = static_cast<double>(i) - chips_end;
    const auto s =
        std::min<std::size_t>(static_cast<std::size_t>(t / sps), n_sym - 1);
    const double u = t - static_cast<double>(s) * sps;
    const double f = p.tone_hz(symbol_value(p, data_bits, s));
    // Square-wave subcarrier: the switch toggles every half tone period,
    // starting reflective at the symbol boundary.
    const double half = sample_rate / (2.0 * f);
    const auto half_cycles = static_cast<std::uint64_t>(u / half);
    out[i] = (half_cycles % 2 == 0) ? SwitchState::kReflective
                                    : SwitchState::kAbsorptive;
  }
}

std::vector<SwitchState> scheme_waveform(SchemeId scheme,
                                         std::span<const std::uint8_t> data_bits,
                                         double bitrate, double sample_rate) {
  std::vector<SwitchState> out(
      scheme_waveform_length(scheme, data_bits.size(), bitrate, sample_rate));
  dsp::Arena scratch;
  scheme_waveform_into(scheme, data_bits, bitrate, sample_rate, out, scratch);
  return out;
}

}  // namespace pab::phy
