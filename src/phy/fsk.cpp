#include "phy/fsk.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/goertzel.hpp"
#include "phy/packet.hpp"

namespace pab::phy {

FskParams FskParams::from(SchemeId id, double bitrate, double sample_rate) {
  FskParams p;
  p.bitrate = bitrate;
  p.sample_rate = sample_rate;
  p.bits_per_symbol = id == SchemeId::kFsk4 ? 2 : 1;
  return p;
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

std::size_t preamble_chip_count() { return uplink_preamble_bits().size() * 2; }

}  // namespace

std::size_t fsk_waveform_length(const FskParams& params, std::size_t n_bits) {
  require(params.bitrate > 0.0 && params.sample_rate > 0.0,
          "fsk_waveform: bad rates");
  const double spc = params.sample_rate / (2.0 * params.bitrate);
  const double pre = static_cast<double>(preamble_chip_count()) * spc;
  const double sps = params.sample_rate / params.symbol_rate();
  return static_cast<std::size_t>(std::ceil(
      pre + static_cast<double>(params.symbols_for(n_bits)) * sps));
}

void fsk_waveform_into(const FskParams& params,
                       std::span<const std::uint8_t> data_bits,
                       std::span<SwitchState> out, dsp::Arena& scratch) {
  require(out.size() == fsk_waveform_length(params, data_bits.size()),
          "fsk_waveform_into: output size mismatch");
  const auto frame = scratch.frame();
  const pab::Bits& preamble = uplink_preamble_bits();
  auto chips = scratch.alloc<std::int8_t>(preamble.size() * 2);
  fm0_encode_into(preamble, /*initial_level=*/-1, chips);

  const double fs = params.sample_rate;
  const double spc = fs / (2.0 * params.bitrate);
  const double pre_exact = static_cast<double>(chips.size()) * spc;
  const auto pre_samples =
      std::min(out.size(), static_cast<std::size_t>(std::ceil(pre_exact)));
  for (std::size_t i = 0; i < pre_samples; ++i) {
    const auto chip = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(i) / spc),
        chips.size() - 1);
    out[i] = chips[chip] > 0 ? SwitchState::kReflective
                             : SwitchState::kAbsorptive;
  }

  const std::size_t n_sym = params.symbols_for(data_bits.size());
  const double sps = fs / params.symbol_rate();
  for (std::size_t i = pre_samples; i < out.size(); ++i) {
    const double t = static_cast<double>(i) - pre_exact;
    const auto s = std::min<std::size_t>(
        static_cast<std::size_t>(t / sps), n_sym - 1);
    const double u = t - static_cast<double>(s) * sps;
    const double f = params.tone_hz(symbol_value(params, data_bits, s));
    // Square-wave subcarrier: the switch toggles every half tone period,
    // starting reflective at the symbol boundary.
    const double half = fs / (2.0 * f);
    const auto half_cycles = static_cast<std::uint64_t>(u / half);
    out[i] = (half_cycles % 2 == 0) ? SwitchState::kReflective
                                    : SwitchState::kAbsorptive;
  }
}

namespace {

FskParams checked_params(const DemodConfig& config, int bits_per_symbol) {
  require(bits_per_symbol == 1 || bits_per_symbol == 2,
          "FskDemodulator: 1 or 2 bits per symbol");
  FskParams p;
  p.bitrate = config.bitrate;
  p.sample_rate = config.sample_rate;
  p.bits_per_symbol = bits_per_symbol;
  return p;
}

}  // namespace

// The receiver low-pass must pass the top tone plus one symbol-rate of
// sideband, whatever `lowpass_factor` asks for (the FM0 default of
// 2.5*bitrate would clip the 3*bitrate tone).
FskDemodulator::FskDemodulator(DemodConfig config, int bits_per_symbol)
    : config_(config),
      params_(checked_params(config_, bits_per_symbol)),
      front_(config_, params_.max_tone_hz() + params_.symbol_rate()) {}

Expected<bool> FskDemodulator::demodulate_envelope_into(
    std::span<const double> envelope, double envelope_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  const auto arena_frame = scratch.frame();
  const double spc = front_.samples_per_chip(envelope_rate);
  const std::size_t n_sym = params_.symbols_for(n_bits);
  const double sps = envelope_rate / params_.symbol_rate();
  const double pre_exact =
      static_cast<double>(front_.preamble_chips().size()) * spc;
  const auto needed = static_cast<std::size_t>(
      std::ceil(pre_exact + static_cast<double>(n_sym) * sps));
  const auto acquired = front_.acquire(envelope, spc, needed, scratch);
  if (!acquired.ok()) return acquired.error();
  // The mid level feeds the tone detector's mean removal; amp only reports
  // the link swing.
  const double mid = acquired.value().mid;

  // Goertzel bank per symbol window: argmax tone decides the symbol;
  // off-tone energy is the error vector (tone magnitudes are insensitive to
  // an anti-phase/inverted envelope, so no sign handling is needed).
  const int n_tones = params_.tone_count();
  std::array<double, 4> tone_hz{};
  for (int k = 0; k < n_tones; ++k) tone_hz[k] = params_.tone_hz(k);
  const std::span<const double> tones(tone_hz.data(),
                                      static_cast<std::size_t>(n_tones));
  auto amps = scratch.alloc<double>(static_cast<std::size_t>(n_tones));
  auto window = scratch.alloc<double>(
      static_cast<std::size_t>(std::ceil(sps)) + 2);
  const double data_start = acquired.value().payload_start;
  const auto bps = static_cast<std::size_t>(params_.bits_per_symbol);
  out.bits.resize(n_bits);  // reuses capacity in steady state
  double sig_power = 0.0, err_power = 0.0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const auto w_lo = static_cast<std::size_t>(
        std::lround(data_start + static_cast<double>(s) * sps));
    auto w_hi = static_cast<std::size_t>(
        std::lround(data_start + static_cast<double>(s + 1) * sps));
    w_hi = std::min(w_hi, envelope.size());
    if (w_lo >= w_hi) return front_.decode_failure("empty symbol window");
    const std::size_t n = w_hi - w_lo;
    for (std::size_t i = 0; i < n; ++i) window[i] = envelope[w_lo + i] - mid;
    dsp::tone_amplitudes_into(window.first(n), tones, envelope_rate, amps);
    int win = 0;
    for (int k = 1; k < n_tones; ++k)
      if (amps[static_cast<std::size_t>(k)] >
          amps[static_cast<std::size_t>(win)])
        win = k;
    for (int k = 0; k < n_tones; ++k) {
      const double a = amps[static_cast<std::size_t>(k)];
      if (k == win) sig_power += a * a;
      else err_power += a * a;
    }
    for (std::size_t b = 0; b < bps; ++b) {
      const std::size_t idx = s * bps + b;
      if (idx < n_bits)
        out.bits[idx] =
            static_cast<std::uint8_t>((win >> (bps - 1 - b)) & 1);
    }
  }
  if (sig_power <= 0.0) return front_.decode_failure("no tone energy");

  out.snr_db =
      err_power > 0.0
          ? std::clamp(10.0 * std::log10(sig_power / err_power), -60.0, 60.0)
          : 60.0;
  // Detection bandwidth = the symbol rate (one Goertzel bin per symbol).
  out.quality = link_quality_from_error_ratio(err_power / sig_power,
                                              params_.symbol_rate());
  front_.accept(acquired.value(), out);
  return true;
}

Expected<bool> FskDemodulator::demodulate_into(std::span<const double> passband,
                                               double sample_rate,
                                               std::size_t n_bits,
                                               dsp::Arena& scratch,
                                               DemodResult& out) const {
  const auto arena_frame = scratch.frame();
  const dsp::SignalView env = front_.envelope(passband, sample_rate, scratch);
  return demodulate_envelope_into(env.samples, env.sample_rate, n_bits, scratch,
                                  out);
}

}  // namespace pab::phy
