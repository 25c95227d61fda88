// The uplink receiver: SchemeDemodulator, declared in phy/scheme.hpp.
#include "phy/scheme.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "phy/equalizer.hpp"
#include "phy/fsk.hpp"
#include "phy/packet.hpp"

namespace pab::phy {

namespace {

// Receiver low-pass: order-5 Butterworth at 2.5x the bitrate (FSK widens it
// to pass its top tone), capped at sample_rate / 2.5.
constexpr int kLowpassOrder = 5;
constexpr double kLowpassFactor = 2.5;

// Soft chip integration: out[c] is the mean of `env` over chip c, whose
// samples span [start + c*spc, start + (c+1)*spc) rounded to the nearest
// index; out.size() is the chip count.
void integrate_chips_into(std::span<const double> env, double start,
                          double samples_per_chip, std::span<double> out) {
  for (std::size_t c = 0; c < out.size(); ++c) {
    const auto lo = static_cast<std::size_t>(
        std::lround(start + static_cast<double>(c) * samples_per_chip));
    const auto hi = static_cast<std::size_t>(
        std::lround(start + static_cast<double>(c + 1) * samples_per_chip));
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi && i < env.size(); ++i) {
      acc += env[i];
      ++n;
    }
    out[c] = n > 0 ? acc / static_cast<double>(n) : 0.0;
  }
}

}  // namespace

SchemeDemodulator::SchemeDemodulator(SchemeConfig config) : config_(config) {
  const DemodConfig& dc = config_.demod;
  require(dc.bitrate > 0.0, "Demodulator: bitrate must be positive");
  require(dc.sample_rate > 0.0, "Demodulator: sample rate must be positive");
  require(dc.carrier_hz > 0.0, "Demodulator: carrier must be positive");
  preamble_chips_ = fm0_encode(uplink_preamble_bits(), /*initial_level=*/-1);
  // FSK needs the top tone plus one symbol-rate of sideband; the FM0 cutoff
  // of 2.5*bitrate would clip the 3*bitrate tone.
  double min_cutoff_hz = 0.0;
  if (config_.scheme != SchemeId::kFm0) {
    const FskParams p = FskParams::from(config_.scheme, dc.bitrate);
    min_cutoff_hz = p.max_tone_hz() + p.symbol_rate();
  }
  const double cutoff =
      std::min(std::max(kLowpassFactor * dc.bitrate, min_cutoff_hz),
               dc.sample_rate / 2.5);
  lowpass_ = dsp::butterworth_lowpass(kLowpassOrder, cutoff, dc.sample_rate);
  if (dc.metrics != nullptr) {
    auto& m = *dc.metrics;
    t_downconvert_ = &m.histogram("phy.demod.downconvert_seconds");
    t_correlate_ = &m.histogram("phy.demod.correlate_seconds");
    t_chanest_ = &m.histogram("phy.demod.chanest_seconds");
    t_equalize_ = &m.histogram("phy.demod.equalize_seconds");
    n_attempts_ = &m.counter("phy.demod.attempts");
    n_ok_ = &m.counter("phy.demod.ok");
    n_no_preamble_ = &m.counter("phy.demod.no_preamble");
    n_decode_failures_ = &m.counter("phy.demod.decode_failures");
    n_rescored_ = &m.counter("phy.demod.rescored_windows");
  }
}

Expected<bool> SchemeDemodulator::demodulate_into(
    std::span<const double> passband, double sample_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  require(sample_rate == config_.demod.sample_rate,
          "demodulate: sample rate mismatch");
  const auto frame = scratch.frame();
  const dsp::SignalView env = [&] {
    const obs::ScopedTimer timer(t_downconvert_);
    const dsp::CplxView bb =
        dsp::downconvert_filtered(passband, sample_rate, config_.demod.carrier_hz,
                                  lowpass_, /*decim=*/1, scratch);
    auto mag = scratch.alloc<double>(bb.size());
    dsp::simd::magnitude(bb.samples, mag);
    return dsp::SignalView(mag, bb.sample_rate);
  }();
  return demodulate_envelope_into(env.samples, env.sample_rate, n_bits, scratch,
                                  out);
}

Expected<bool> SchemeDemodulator::demodulate_envelope_into(
    std::span<const double> envelope, double envelope_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  const DemodConfig& dc = config_.demod;
  const double spc = envelope_rate / (2.0 * dc.bitrate);
  // The rate arrives with the capture (a WAV header, say), so too few
  // samples per chip is an input error, not a program bug.
  if (!(spc >= 2.0))
    return Error{ErrorCode::kInvalidArgument,
                 "demodulate: fewer than 2 samples per chip"};
  // One NaN or Inf sample would otherwise steer detection or poison the
  // quality metrics while the decode still reports success.
  if (!std::ranges::all_of(envelope, [](double v) { return std::isfinite(v); }))
    return Error{ErrorCode::kInvalidArgument,
                 "demodulate: non-finite envelope sample"};
  const auto frame = scratch.frame();
  // The packet spans the scheme's on-air length at the envelope rate.
  const auto amp = acquire(
      envelope, spc,
      scheme_waveform_length(config_.scheme, n_bits, dc.bitrate, envelope_rate),
      scratch, out);
  if (!amp.ok()) return amp.error();
  const double payload_start =
      static_cast<double>(out.start_sample) +
      static_cast<double>(preamble_chips_.size()) * spc;
  const auto decoded =
      config_.scheme == SchemeId::kFm0
          ? decode_fm0(envelope, payload_start, spc, amp.value(), n_bits,
                       scratch, out)
          : decode_fsk(envelope, envelope_rate, payload_start, n_bits, scratch,
                       out);
  if (decoded.ok() && n_ok_ != nullptr) n_ok_->add();
  return decoded;
}

Expected<DemodResult> SchemeDemodulator::demodulate(const dsp::Signal& passband,
                                                    std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_into(passband.samples, passband.sample_rate, n_bits,
                                  scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<DemodResult> SchemeDemodulator::demodulate_envelope(
    std::span<const double> envelope, double envelope_rate,
    std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_envelope_into(envelope, envelope_rate, n_bits,
                                           scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<double> SchemeDemodulator::acquire(std::span<const double> envelope,
                                            double spc,
                                            std::size_t packet_samples,
                                            dsp::Arena& scratch,
                                            DemodResult& out) const {
  const std::size_t n_pre_chips = preamble_chips_.size();
  if (n_attempts_ != nullptr) n_attempts_->add();
  const auto no_preamble = [this](const char* what) {
    if (n_no_preamble_ != nullptr) n_no_preamble_->add();
    return Error{ErrorCode::kNoPreamble, what};
  };
  if (envelope.size() < packet_samples)
    return no_preamble("capture shorter than one packet");

  dsp::CorrPeak peak;
  {
    const obs::ScopedTimer timer(t_correlate_);
    // Preamble template at envelope rate.
    auto tmpl = scratch.alloc<double>(static_cast<std::size_t>(
        std::ceil(static_cast<double>(n_pre_chips) * spc)));
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
      const auto chip = std::min<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(i) / spc),
          n_pre_chips - 1);
      tmpl[i] = static_cast<double>(preamble_chips_[chip]);
    }

    // Windowed Pearson correlation: immune to the un-modulated carrier offset
    // beneath the packet and to level transients at the capture edges.  Only
    // the starts after which the whole packet still fits are scored.
    std::size_t n_windows =
        dsp::correlation_length(envelope.size(), tmpl.size());
    if (n_windows == 0 || tmpl.size() < 2)
      return no_preamble("correlation empty");
    if (packet_samples < envelope.size())
      n_windows = std::min(n_windows, envelope.size() - packet_samples + 1);
    peak = dsp::pearson_peak(envelope, tmpl, n_windows, scratch);
    if (n_rescored_ != nullptr) n_rescored_->add(peak.rescored);
  }
  if (peak.corr < config_.demod.detect_threshold)
    return no_preamble("no preamble above threshold");

  const obs::ScopedTimer timer(t_chanest_);
  auto pre_soft = scratch.alloc<double>(n_pre_chips);
  integrate_chips_into(envelope, static_cast<double>(peak.index), spc,
                       pre_soft);
  double hi = 0.0, lo = 0.0;
  std::size_t nhi = 0, nlo = 0;
  for (std::size_t c = 0; c < n_pre_chips; ++c) {
    if (preamble_chips_[c] > 0) { hi += pre_soft[c]; ++nhi; }
    else { lo += pre_soft[c]; ++nlo; }
  }
  if (nhi == 0 || nlo == 0) return decode_failure("degenerate preamble");
  hi /= static_cast<double>(nhi);
  lo /= static_cast<double>(nlo);
  const double amp = (hi - lo) / 2.0;
  if (amp == 0.0) return decode_failure("zero modulation depth");
  out.start_sample = peak.index;
  out.preamble_corr = peak.corr;
  out.channel_amp = std::abs(amp);
  out.mid_level = (hi + lo) / 2.0;
  return amp;
}

Expected<bool> SchemeDemodulator::decode_fm0(std::span<const double> envelope,
                                             double payload_start, double spc,
                                             double amp, std::size_t n_bits,
                                             dsp::Arena& scratch,
                                             DemodResult& out) const {
  // Level at the end of the preamble: the last chip emitted.
  const std::int8_t level = preamble_chips_.back();
  const std::size_t n_data_chips = 2 * n_bits;
  // Soft data chips, normalized to +/-1 nominal.
  auto soft = scratch.alloc<double>(n_data_chips);
  integrate_chips_into(envelope, payload_start, spc, soft);
  for (double& v : soft) v = (v - out.mid_level) / amp;

  out.bits.resize(n_bits);  // reuses capacity in steady state
  fm0_decode_ml_into(soft, level, out.bits, scratch);

  if (config_.demod.decision_directed_equalizer) {
    // Second pass: treat the first decision as training, equalize the chip
    // stream, decode again.  With a mostly-correct first pass this cancels
    // the reverberation tail that limits chip SNR.  (This optional pass
    // still allocates: the normal-equation solve is vector-based.)
    const obs::ScopedTimer timer(t_equalize_);
    const Chips ref_chips = fm0_encode(out.bits, level);
    std::vector<std::complex<double>> rx(soft.size());
    for (std::size_t c = 0; c < soft.size(); ++c) rx[c] = {soft[c], 0.0};
    std::vector<double> ref(ref_chips.begin(), ref_chips.end());
    LinearEqualizer eq;
    if (rx.size() >= static_cast<std::size_t>(4 * eq.tap_count())) {
      eq.train(rx, ref);
      const auto eq_out = eq.apply(rx);
      for (std::size_t c = 0; c < soft.size(); ++c) soft[c] = eq_out[c].real();
      out.bits = fm0_decode_ml(soft, level);
    }
  }

  // SNR per the paper: re-encode the decoded bits, compare chip-level.
  auto ref = scratch.alloc<std::int8_t>(n_data_chips);
  fm0_encode_into(out.bits, level, ref);
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
                                              2.0 * config_.demod.bitrate);
  return true;
}

Expected<bool> SchemeDemodulator::decode_fsk(std::span<const double> envelope,
                                             double envelope_rate,
                                             double payload_start,
                                             std::size_t n_bits,
                                             dsp::Arena& scratch,
                                             DemodResult& out) const {
  const FskParams p = FskParams::from(config_.scheme, config_.demod.bitrate);
  const std::size_t n_sym = p.symbols_for(n_bits);
  const double sps = envelope_rate / p.symbol_rate();
  // The mid level feeds the tone detector's mean removal; the channel
  // amplitude only reports the link swing.
  const double mid = out.mid_level;

  // Goertzel bank per symbol window: argmax tone decides the symbol;
  // off-tone energy is the error vector (tone magnitudes are insensitive to
  // an anti-phase/inverted envelope, so no sign handling is needed).
  const int n_tones = p.tone_count();
  std::array<double, 4> tone_hz{};
  for (int k = 0; k < n_tones; ++k) tone_hz[k] = p.tone_hz(k);
  const std::span<const double> tones(tone_hz.data(),
                                      static_cast<std::size_t>(n_tones));
  auto amps = scratch.alloc<double>(static_cast<std::size_t>(n_tones));
  auto window = scratch.alloc<double>(
      static_cast<std::size_t>(std::ceil(sps)) + 2);
  const auto bps = static_cast<std::size_t>(p.bits_per_symbol);
  out.bits.resize(n_bits);  // reuses capacity in steady state
  double sig_power = 0.0, err_power = 0.0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    const auto w_lo = static_cast<std::size_t>(
        std::lround(payload_start + static_cast<double>(s) * sps));
    auto w_hi = static_cast<std::size_t>(
        std::lround(payload_start + static_cast<double>(s + 1) * sps));
    w_hi = std::min(w_hi, envelope.size());
    if (w_lo >= w_hi) return decode_failure("empty symbol window");
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
  if (sig_power <= 0.0) return decode_failure("no tone energy");

  out.snr_db =
      err_power > 0.0
          ? std::clamp(10.0 * std::log10(sig_power / err_power), -60.0, 60.0)
          : 60.0;
  // Detection bandwidth = the symbol rate (one Goertzel bin per symbol).
  out.quality =
      link_quality_from_error_ratio(err_power / sig_power, p.symbol_rate());
  return true;
}

Error SchemeDemodulator::decode_failure(const char* what) const {
  if (n_decode_failures_ != nullptr) n_decode_failures_->add();
  return Error{ErrorCode::kDecodeFailure, what};
}

}  // namespace pab::phy
