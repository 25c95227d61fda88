// Chip-spaced linear MMSE equalizer for reverberant backscatter channels.
//
// Enclosed tanks smear chips across their neighbors (multipath delay spread
// of several milliseconds); at higher bitrates this inter-chip interference
// caps the SNR even when the noise floor is low.  A short FIR equalizer
// trained on the known preamble/training chips (least squares = MMSE at the
// training SNR) restores the chip sequence before FM0 decoding -- a receiver
// upgrade the paper's MATLAB decoder could adopt unchanged.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace pab::phy {

struct EqualizerConfig {
  int pre_taps = 2;   // anti-causal taps (future chips)
  int post_taps = 4;  // causal taps (past chips)
  double ridge = 1e-3;  // diagonal loading relative to the input power
};

class LinearEqualizer {
 public:
  explicit LinearEqualizer(EqualizerConfig config = {});

  // Fit taps from received training chips `rx` and the known +/-1 sequence
  // `ref` (same length), minimizing ||W rx - ref||^2 with ridge loading.
  void train(std::span<const std::complex<double>> rx,
             std::span<const double> ref);

  // Apply the trained taps to a chip stream.
  [[nodiscard]] std::vector<std::complex<double>> apply(
      std::span<const std::complex<double>> rx) const;

  [[nodiscard]] bool trained() const { return !taps_.empty(); }
  [[nodiscard]] const std::vector<std::complex<double>>& taps() const {
    return taps_;
  }
  [[nodiscard]] int tap_count() const {
    return config_.pre_taps + config_.post_taps + 1;
  }

 private:
  EqualizerConfig config_;
  std::vector<std::complex<double>> taps_;  // index 0 = most anti-causal
};

}  // namespace pab::phy
