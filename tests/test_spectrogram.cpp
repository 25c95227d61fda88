// STFT / spectrogram tests.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/spectrogram.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"

namespace pab::dsp {
namespace {

using testing::make_tone;

TEST(Spectrogram, ToneConcentratesInItsBin) {
  const Signal s = make_tone(15000.0, 1.0, 0.2, 96000.0);
  const auto spec = compute_spectrogram(s);
  ASSERT_GT(spec.frames(), 10u);
  const auto track = dominant_frequency_track(spec);
  for (double f : track) EXPECT_NEAR(f, 15000.0, 96000.0 / 1024.0 + 1.0);
}

TEST(Spectrogram, TracksFrequencyStep) {
  // 12 kHz for the first half, 18 kHz for the second.
  Signal s = make_tone(12000.0, 1.0, 0.1, 96000.0);
  const Signal s2 = make_tone(18000.0, 1.0, 0.1, 96000.0);
  s.samples.insert(s.samples.end(), s2.samples.begin(), s2.samples.end());
  const auto spec = compute_spectrogram(s);
  const auto track = dominant_frequency_track(spec);
  ASSERT_GT(track.size(), 20u);
  EXPECT_NEAR(track.front(), 12000.0, 200.0);
  EXPECT_NEAR(track.back(), 18000.0, 200.0);
}

TEST(Spectrogram, BandPowerSeparatesChannels) {
  Signal s = make_tone(15000.0, 1.0, 0.2, 96000.0);
  s.accumulate(make_tone(18000.0, 0.5, 0.2, 96000.0));
  const auto spec = compute_spectrogram(s);
  const auto p15 = band_power_track(spec, 14500.0, 15500.0);
  const auto p18 = band_power_track(spec, 17500.0, 18500.0);
  const auto p10 = band_power_track(spec, 9500.0, 10500.0);
  ASSERT_FALSE(p15.empty());
  const std::size_t mid = p15.size() / 2;
  EXPECT_GT(p15[mid], p18[mid]);          // 15k is stronger than 18k
  EXPECT_GT(p18[mid], 100.0 * p10[mid]);  // 10k band is empty
}

TEST(Spectrogram, OnOffKeyingVisibleInBandPower) {
  // Carrier on for 0.1 s, off for 0.1 s.
  Signal s = make_tone(15000.0, 1.0, 0.1, 96000.0);
  s.samples.resize(2 * s.size(), 0.0);
  const auto spec = compute_spectrogram(s);
  const auto p = band_power_track(spec, 14500.0, 15500.0);
  ASSERT_GT(p.size(), 10u);
  EXPECT_GT(p[p.size() / 4], 100.0 * p[3 * p.size() / 4]);
}

TEST(Spectrogram, FrameTimingAndAxes) {
  const Signal s = make_tone(1000.0, 1.0, 0.5, 48000.0);
  SpectrogramConfig cfg;
  cfg.fft_size = 512;
  cfg.hop = 128;
  const auto spec = compute_spectrogram(s, cfg);
  EXPECT_EQ(spec.bins(), 257u);
  EXPECT_NEAR(spec.frequency_hz[1] - spec.frequency_hz[0], 48000.0 / 512.0, 1e-9);
  ASSERT_GT(spec.frames(), 1u);
  EXPECT_NEAR(spec.time_s[1] - spec.time_s[0], 128.0 / 48000.0, 1e-9);
}

TEST(Spectrogram, ShortSignalYieldsNoFrames) {
  Signal s;
  s.sample_rate = 48000.0;
  s.samples.resize(100, 0.0);  // shorter than the FFT window
  const auto spec = compute_spectrogram(s);
  EXPECT_EQ(spec.frames(), 0u);
}

TEST(Spectrogram, InvalidConfigThrows) {
  const Signal s = make_tone(1000.0, 1.0, 0.1, 48000.0);
  SpectrogramConfig bad;
  bad.fft_size = 1000;  // not a power of two
  EXPECT_THROW((void)compute_spectrogram(s, bad), std::invalid_argument);
  SpectrogramConfig bad2;
  bad2.hop = 0;
  EXPECT_THROW((void)compute_spectrogram(s, bad2), std::invalid_argument);
}

}  // namespace
}  // namespace pab::dsp
