#include "phy/receiver.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/correlate.hpp"
#include "dsp/mixer.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "phy/modem.hpp"
#include "phy/packet.hpp"

namespace pab::phy::detail {

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

ReceiverFrontEnd::ReceiverFrontEnd(const DemodConfig& config,
                                   double min_cutoff_hz)
    : carrier_hz_(config.carrier_hz),
      bitrate_(config.bitrate),
      sample_rate_(config.sample_rate),
      detect_threshold_(config.detect_threshold) {
  require(config.bitrate > 0.0, "Demodulator: bitrate must be positive");
  require(config.sample_rate > 0.0,
          "Demodulator: sample rate must be positive");
  require(config.carrier_hz > 0.0, "Demodulator: carrier must be positive");
  preamble_chips_ = fm0_encode(uplink_preamble_bits(), /*initial_level=*/-1);
  const double cutoff =
      std::min(std::max(config.lowpass_factor * config.bitrate, min_cutoff_hz),
               config.sample_rate / 2.5);
  lowpass_ = dsp::butterworth_lowpass(config.lowpass_order, cutoff,
                                      config.sample_rate);
  if (config.metrics != nullptr) {
    auto& m = *config.metrics;
    t_downconvert_ = &m.histogram("phy.demod.downconvert_seconds");
    t_correlate_ = &m.histogram("phy.demod.correlate_seconds");
    t_chanest_ = &m.histogram("phy.demod.chanest_seconds");
    t_equalize_ = &m.histogram("phy.demod.equalize_seconds");
    n_attempts_ = &m.counter("phy.demod.attempts");
    n_ok_ = &m.counter("phy.demod.ok");
    n_no_preamble_ = &m.counter("phy.demod.no_preamble");
    n_decode_failures_ = &m.counter("phy.demod.decode_failures");
  }
}

dsp::SignalView ReceiverFrontEnd::envelope(std::span<const double> passband,
                                           double sample_rate,
                                           dsp::Arena& scratch) const {
  require(sample_rate == sample_rate_, "demodulate: sample rate mismatch");
  const obs::ScopedTimer timer(t_downconvert_);
  const dsp::CplxView bb = dsp::downconvert_filtered(
      passband, sample_rate, carrier_hz_, lowpass_, /*decim=*/1, scratch);
  auto env = scratch.alloc<double>(bb.size());
  dsp::simd::magnitude(bb.samples, env);
  return {env, bb.sample_rate};
}

double ReceiverFrontEnd::samples_per_chip(double envelope_rate) const {
  const double spc = envelope_rate / (2.0 * bitrate_);
  require(spc >= 2.0, "demodulate: fewer than 2 samples per chip");
  return spc;
}

Expected<Acquisition> ReceiverFrontEnd::acquire(
    std::span<const double> envelope, double spc, std::size_t packet_samples,
    dsp::Arena& scratch) const {
  const std::size_t n_pre_chips = preamble_chips_.size();
  if (n_attempts_ != nullptr) n_attempts_->add();
  const auto no_preamble = [this](const char* what) {
    if (n_no_preamble_ != nullptr) n_no_preamble_->add();
    return Error{ErrorCode::kNoPreamble, what};
  };
  if (envelope.size() < packet_samples)
    return no_preamble("capture shorter than one packet");

  Acquisition acq;
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
    // beneath the packet and to level transients at the capture edges.
    const std::size_t corr_len =
        dsp::correlation_length(envelope.size(), tmpl.size());
    if (corr_len == 0 || tmpl.size() < 2)
      return no_preamble("correlation empty");
    auto corr = scratch.alloc<double>(corr_len);
    dsp::pearson_correlation_into(envelope, tmpl, corr);

    std::size_t search_end = corr.size();
    if (packet_samples < envelope.size())
      search_end = std::min(search_end, envelope.size() - packet_samples + 1);
    double best_v = -1e300;
    for (std::size_t i = 0; i < search_end; ++i) {
      const double m = std::abs(corr[i]);
      if (m > best_v) { best_v = m; acq.start = i; }
    }
    acq.corr = best_v;
  }
  if (acq.corr < detect_threshold_)
    return no_preamble("no preamble above threshold");

  const obs::ScopedTimer timer(t_chanest_);
  auto pre_soft = scratch.alloc<double>(n_pre_chips);
  integrate_chips_into(envelope, static_cast<double>(acq.start), spc, pre_soft);
  double hi = 0.0, lo = 0.0;
  std::size_t nhi = 0, nlo = 0;
  for (std::size_t c = 0; c < n_pre_chips; ++c) {
    if (preamble_chips_[c] > 0) { hi += pre_soft[c]; ++nhi; }
    else { lo += pre_soft[c]; ++nlo; }
  }
  if (nhi == 0 || nlo == 0) return decode_failure("degenerate preamble");
  hi /= static_cast<double>(nhi);
  lo /= static_cast<double>(nlo);
  acq.amp = (hi - lo) / 2.0;
  acq.mid = (hi + lo) / 2.0;
  if (acq.amp == 0.0) return decode_failure("zero modulation depth");
  acq.payload_start =
      static_cast<double>(acq.start) + static_cast<double>(n_pre_chips) * spc;
  return acq;
}

Error ReceiverFrontEnd::decode_failure(const char* what) const {
  if (n_decode_failures_ != nullptr) n_decode_failures_->add();
  return Error{ErrorCode::kDecodeFailure, what};
}

void ReceiverFrontEnd::accept(const Acquisition& acq, DemodResult& out) const {
  out.start_sample = acq.start;
  out.channel_amp = std::abs(acq.amp);
  out.mid_level = acq.mid;
  out.preamble_corr = acq.corr;
  if (n_ok_ != nullptr) n_ok_->add();
}

}  // namespace pab::phy::detail
