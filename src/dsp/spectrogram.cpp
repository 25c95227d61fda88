#include "dsp/spectrogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pab::dsp {

Spectrogram compute_spectrogram(const Signal& signal,
                                const SpectrogramConfig& config) {
  require(signal.sample_rate > 0.0, "spectrogram: sample rate unset");
  require(config.fft_size >= 8, "spectrogram: fft size too small");
  require((config.fft_size & (config.fft_size - 1)) == 0,
          "spectrogram: fft size must be a power of two");
  require(config.hop >= 1, "spectrogram: hop must be >= 1");

  const auto window = make_window(config.window, config.fft_size);
  const std::size_t half = config.fft_size / 2 + 1;

  Spectrogram out;
  out.frequency_hz.resize(half);
  const double df = signal.sample_rate / static_cast<double>(config.fft_size);
  for (std::size_t b = 0; b < half; ++b)
    out.frequency_hz[b] = df * static_cast<double>(b);

  if (signal.size() < config.fft_size) return out;
  const std::size_t n_frames = (signal.size() - config.fft_size) / config.hop + 1;
  out.magnitude.reserve(n_frames);
  out.time_s.reserve(n_frames);

  const FftPlan& plan = fft_plan(config.fft_size);
  std::vector<cplx> frame(config.fft_size);
  const double scale = 2.0 / static_cast<double>(config.fft_size);
  for (std::size_t f = 0; f < n_frames; ++f) {
    const std::size_t start = f * config.hop;
    for (std::size_t i = 0; i < config.fft_size; ++i)
      frame[i] = cplx(signal.samples[start + i] * window[i], 0.0);
    plan.transform(frame);
    std::vector<double> mags(half);
    for (std::size_t b = 0; b < half; ++b) mags[b] = std::abs(frame[b]) * scale;
    out.magnitude.push_back(std::move(mags));
    out.time_s.push_back(
        (static_cast<double>(start) + static_cast<double>(config.fft_size) / 2.0) /
        signal.sample_rate);
  }
  return out;
}

std::vector<double> dominant_frequency_track(const Spectrogram& spec) {
  std::vector<double> track;
  track.reserve(spec.frames());
  for (const auto& frame : spec.magnitude) {
    const auto it = std::max_element(frame.begin(), frame.end());
    track.push_back(
        spec.frequency_hz[static_cast<std::size_t>(it - frame.begin())]);
  }
  return track;
}

std::vector<double> band_power_track(const Spectrogram& spec, double low_hz,
                                     double high_hz) {
  require(high_hz > low_hz, "band_power_track: invalid band");
  std::vector<double> track;
  track.reserve(spec.frames());
  for (const auto& frame : spec.magnitude) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < frame.size(); ++b) {
      if (spec.frequency_hz[b] < low_hz || spec.frequency_hz[b] > high_hz) continue;
      acc += frame[b] * frame[b];
      ++n;
    }
    track.push_back(n > 0 ? acc / static_cast<double>(n) : 0.0);
  }
  return track;
}

}  // namespace pab::dsp
