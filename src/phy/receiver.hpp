// Internal to phy: the receiver front end every uplink scheme shares.
//
// Paper section 5.1b's chain up to the payload: down-convert at the carrier,
// Butterworth low-pass, envelope, preamble correlation for packet detection,
// and the two-level channel estimate on the preamble chips.  Every scheme
// keeps the standard FM0 uplink preamble on air, so FM0 and FSK receivers
// both run this front end and supply only their payload decoder.  It also
// owns the `phy.demod.*` outcome counters and stage timers, so every scheme
// reports the same instruments.  Not part of the public phy API -- use
// phy/modem.hpp, phy/fsk.hpp or phy/scheme.hpp instead.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/arena.hpp"
#include "dsp/iir.hpp"
#include "dsp/signal.hpp"
#include "phy/fm0.hpp"
#include "util/error.hpp"

namespace pab::obs {
class Counter;
class Histogram;
}  // namespace pab::obs

namespace pab::phy {

struct DemodConfig;
struct DemodResult;

namespace detail {

// Soft chip integration: out[c] is the mean of `env` over chip c, whose
// samples span [start + c*spc, start + (c+1)*spc) rounded to the nearest
// index; out.size() is the chip count.
void integrate_chips_into(std::span<const double> env, double start,
                          double samples_per_chip, std::span<double> out);

// Where the front end found a packet and the channel it measured there.
struct Acquisition {
  std::size_t start = 0;       // envelope index of the preamble start
  double corr = 0.0;           // peak |Pearson| preamble correlation
  double amp = 0.0;            // signed half-swing: negative = inverted levels
  double mid = 0.0;            // level midpoint
  double payload_start = 0.0;  // fractional envelope index after the preamble
};

class ReceiverFrontEnd {
 public:
  // Checks the config and designs the receiver low-pass once, at
  // max(lowpass_factor * bitrate, min_cutoff_hz) capped at sample_rate/2.5:
  // each scheme names the lowest cutoff its payload survives.
  ReceiverFrontEnd(const DemodConfig& config, double min_cutoff_hz);

  // Down-convert `passband` at the carrier, low-pass, and take the
  // magnitude.  The envelope is carved from `scratch` and lives until the
  // caller's frame ends.
  [[nodiscard]] dsp::SignalView envelope(std::span<const double> passband,
                                         double sample_rate,
                                         dsp::Arena& scratch) const;

  // Envelope samples per FM0 chip at `envelope_rate` (at least 2).
  [[nodiscard]] double samples_per_chip(double envelope_rate) const;

  // Count the attempt, find the preamble, and estimate the two-level
  // channel.  Detection takes the |corr| argmax of the windowed Pearson
  // correlation over the starts after which `packet_samples` (preamble plus
  // payload) still fit, then applies the detect threshold; an anti-phase
  // backscatter component inverts the levels and shows up as a negative
  // amp.  Scratch is carved from `scratch` and lives until the caller's
  // frame ends.
  [[nodiscard]] Expected<Acquisition> acquire(std::span<const double> envelope,
                                              double samples_per_chip,
                                              std::size_t packet_samples,
                                              dsp::Arena& scratch) const;

  // Count a payload decode failure and return its error.
  [[nodiscard]] Error decode_failure(const char* what) const;

  // Copy the acquisition into `out` and count the decode as ok.
  void accept(const Acquisition& acq, DemodResult& out) const;

  [[nodiscard]] const Chips& preamble_chips() const { return preamble_chips_; }
  [[nodiscard]] obs::Histogram* equalize_timer() const { return t_equalize_; }

 private:
  double carrier_hz_;
  double bitrate_;
  double sample_rate_;
  double detect_threshold_;
  Chips preamble_chips_;
  // Designed once at construction (designing per call would allocate in the
  // hot path).
  dsp::BiquadCascade lowpass_;
  // Resolved once at construction from config.metrics (null = metrics off).
  obs::Histogram* t_downconvert_ = nullptr;
  obs::Histogram* t_correlate_ = nullptr;
  obs::Histogram* t_chanest_ = nullptr;
  obs::Histogram* t_equalize_ = nullptr;
  obs::Counter* n_attempts_ = nullptr;
  obs::Counter* n_ok_ = nullptr;
  obs::Counter* n_no_preamble_ = nullptr;
  obs::Counter* n_decode_failures_ = nullptr;
};

}  // namespace detail
}  // namespace pab::phy
