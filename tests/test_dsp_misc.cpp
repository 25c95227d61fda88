// Mixer, envelope, correlation, Goertzel, and resampling tests.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/correlate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

using testing::make_tone;
using testing::signal_power;
using testing::upconvert;

TEST(Mixer, ToneProperties) {
  const Signal s = make_tone(1000.0, 2.0, 0.5, 48000.0);
  EXPECT_EQ(s.size(), 24000u);
  EXPECT_NEAR(s.duration(), 0.5, 1e-9);
  EXPECT_NEAR(signal_power(std::span<const double>(s.samples)), 2.0, 0.01);
}

TEST(Mixer, DownconvertRecoversEnvelope) {
  const double fs = 96000.0;
  const Signal s = make_tone(15000.0, 0.8, 0.1, fs);
  const auto bb = downconvert_filtered(s, 15000.0, 2000.0);
  // After settling, |bb| should equal the tone amplitude.
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = bb.size() / 2; i < bb.size(); ++i) {
    acc += std::abs(bb.samples[i]);
    ++n;
  }
  EXPECT_NEAR(acc / static_cast<double>(n), 0.8, 0.01);
}

TEST(Mixer, UpDownRoundTrip) {
  const double fs = 96000.0;
  BasebandSignal bb;
  bb.sample_rate = fs;
  bb.carrier_hz = 15000.0;
  bb.samples.assign(9600, cplx(0.5, 0.0));
  const Signal pass = upconvert(bb, 15000.0);
  const auto back = downconvert_filtered(pass, 15000.0, 2000.0);
  EXPECT_NEAR(std::abs(back.samples[back.size() / 2]), 0.5, 0.01);
}

TEST(Mixer, DownconvertDecimation) {
  const Signal s = make_tone(15000.0, 1.0, 0.1, 96000.0);
  const auto bb = downconvert_filtered(s, 15000.0, 2000.0, 5, 8);
  EXPECT_NEAR(bb.sample_rate, 12000.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(bb.size()), 9600.0 / 8.0, 2.0);
}

TEST(Envelope, RcTracksOnOffKeying) {
  const double fs = 96000.0;
  Signal s = make_tone(15000.0, 1.0, 0.02, fs);
  s.samples.resize(s.size() * 2, 0.0);  // second half silent
  const auto env = envelope_rc(s.samples, fs, 0.3e-3);
  EXPECT_GT(env[s.size() / 2], 0.8);
  EXPECT_LT(env.back(), 0.05);
}

TEST(Envelope, SchmittHysteresis) {
  // A ramp crossing both thresholds toggles once; small wiggles do not.
  std::vector<double> env;
  for (int i = 0; i < 100; ++i) env.push_back(static_cast<double>(i) / 100.0);
  for (int i = 0; i < 100; ++i) env.push_back(1.0 - static_cast<double>(i) / 100.0);
  const auto sliced = schmitt_slice(env, 0.6, 0.4);
  EXPECT_EQ(sliced.front(), 0);
  EXPECT_EQ(sliced[100], 1);
  EXPECT_EQ(sliced.back(), 0);
  // Wiggle around the midpoint after going high: stays high.
  std::vector<double> wiggle(50, 1.0);
  for (int i = 0; i < 50; ++i) wiggle.push_back(0.5 + 0.05 * ((i % 2) ? 1 : -1));
  const auto sliced2 = schmitt_slice(wiggle, 0.6, 0.4);
  EXPECT_EQ(sliced2.back(), 1);
}

TEST(Correlate, PearsonInvariantToOffsetAndScale) {
  pab::Rng rng(2);
  std::vector<double> t(64);
  for (auto& v : t) v = rng.gaussian();
  std::vector<double> x(400, 5.0);  // large DC pedestal
  const std::size_t offset = 100;
  for (std::size_t i = 0; i < t.size(); ++i) x[offset + i] = 5.0 + 0.001 * t[i];
  Arena arena;
  const CorrPeak peak =
      pearson_peak(x, t, correlation_length(x.size(), t.size()), arena);
  EXPECT_EQ(peak.index, offset);
  EXPECT_NEAR(peak.corr, 1.0, 1e-9);
}

TEST(Correlate, PearsonBounded) {
  pab::Rng rng(3);
  std::vector<double> t(32), x(256);
  for (auto& v : t) v = rng.gaussian();
  for (auto& v : x) v = rng.gaussian();
  // The peak over every prefix of starts bounds every score.
  Arena arena;
  for (std::size_t n = 1; n <= correlation_length(x.size(), t.size()); ++n) {
    const double c = pearson_peak(x, t, n, arena).corr;
    EXPECT_LE(c, 1.0 + 1e-9);
    EXPECT_GE(c, 0.0);
  }
}

TEST(Goertzel, MatchesToneAmplitude) {
  const Signal s = make_tone(15000.0, 0.7, 0.05, 96000.0);
  EXPECT_NEAR(tone_amplitude(s.samples, 15000.0, 96000.0), 0.7, 0.01);
  EXPECT_LT(tone_amplitude(s.samples, 10000.0, 96000.0), 0.01);
}

TEST(Resample, AddDelayedScaledAccumulates) {
  std::vector<cplx> acc(5);
  const std::vector<cplx> y = {1.0, 1.0};
  add_delayed_scaled_into(acc, y, 2.0, 0.5);
  add_delayed_scaled_into(acc, y, 2.0, 0.5);
  EXPECT_NEAR(acc[2].real(), 1.0, 1e-12);
  EXPECT_NEAR(acc[3].real(), 1.0, 1e-12);
  EXPECT_THROW(add_delayed_scaled_into(acc, y, 3.0, 0.5),
               std::invalid_argument);  // needs floor(3) + 2 + 1 = 6 samples
}

TEST(Resample, ComplexGainRotates) {
  std::vector<cplx> acc(2);
  const std::vector<cplx> y = {cplx(1.0, 0.0)};
  add_delayed_scaled_into(acc, y, 0.0, cplx(0.0, 1.0));
  EXPECT_NEAR(acc[0].imag(), 1.0, 1e-12);
  EXPECT_NEAR(acc[0].real(), 0.0, 1e-12);
}

TEST(Signal, AccumulateZeroPads) {
  Signal a{std::vector<double>{1.0, 1.0}, 48000.0};
  Signal b{std::vector<double>{1.0, 1.0, 1.0}, 48000.0};
  a.accumulate(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NEAR(a[2], 1.0, 1e-12);
  Signal c{std::vector<double>{}, 44100.0};
  EXPECT_THROW(a.accumulate(c), std::invalid_argument);
}

}  // namespace
}  // namespace pab::dsp
