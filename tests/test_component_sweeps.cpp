// Component-level parameterized sweeps: sensors, storage, mixers, and the
// downlink chain across their operating ranges.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "circuit/storage.hpp"
#include "dsp/mixer.hpp"
#include "phy/pwm.hpp"
#include "sense/ms5837.hpp"
#include "sense/ph.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab {
namespace {

// --- MS5837 across the environmental grid --------------------------------------

class Ms5837Sweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Ms5837Sweep, CompensationRecoversGroundTruth) {
  const auto [temp_c, depth_m] = GetParam();
  sense::Environment env;
  env.temperature_c = temp_c;
  env.pressure_mbar = 1013.25;
  sense::I2cBus bus;
  bus.attach(sense::kMs5837Address,
             std::make_shared<sense::Ms5837Device>(&env, depth_m, Rng(7)));
  sense::Ms5837Driver driver(&bus);
  const auto reading = driver.measure();
  ASSERT_TRUE(reading.ok());
  EXPECT_NEAR(reading.value().temperature_c, temp_c, 0.15)
      << temp_c << "C @" << depth_m << "m";
  EXPECT_NEAR(reading.value().pressure_mbar, env.pressure_at_depth_mbar(depth_m),
              5.0)
      << temp_c << "C @" << depth_m << "m";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Ms5837Sweep,
    ::testing::Combine(::testing::Values(2.0, 10.0, 20.0, 28.0),
                       ::testing::Values(0.0, 1.0, 10.0, 50.0)));

// --- pH probe across the scale ---------------------------------------------------

class PhSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhSweep, AdcRoundTrip) {
  const double truth = GetParam();
  sense::Environment env;
  env.ph = truth;
  env.temperature_c = 25.0;
  sense::PhProbe probe(&env);
  sense::Adc adc;
  Rng rng(11);
  double sum = 0.0;
  const int n = 24;
  for (int i = 0; i < n; ++i)
    sum += probe.ph_from_adc(adc.sample(probe.afe_output(rng), rng), adc, 25.0);
  EXPECT_NEAR(sum / n, truth, 0.1) << "pH " << truth;
}

INSTANTIATE_TEST_SUITE_P(Scale, PhSweep,
                         ::testing::Values(4.5, 5.5, 6.5, 7.0, 7.5, 8.2, 9.0));

// --- Supercapacitor energy conservation across rates ------------------------------

class SupercapSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SupercapSweep, StoredEnergyNeverExceedsInput) {
  const auto [p_in, dt] = GetParam();
  circuit::Supercapacitor cap(1000e-6);
  double input = 0.0;
  for (int i = 0; i < 500; ++i) {
    cap.step(dt, p_in, 0.0, 100.0);
    input += p_in * dt;
  }
  EXPECT_LE(cap.stored_energy_j(), input * (1.0 + 1e-9));
  EXPECT_NEAR(cap.stored_energy_j(), input, input * 1e-9);  // lossless model
}

TEST_P(SupercapSweep, DischargeIsSymmetric) {
  const auto [p, dt] = GetParam();
  circuit::Supercapacitor cap(1000e-6, 3.0);
  const double e0 = cap.stored_energy_j();
  double drawn = 0.0;
  for (int i = 0; i < 100 && cap.voltage() > 0.1; ++i) {
    cap.step(dt, 0.0, p, 100.0);
    drawn += p * dt;
  }
  EXPECT_NEAR(e0 - cap.stored_energy_j(), drawn, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, SupercapSweep,
    ::testing::Combine(::testing::Values(1e-5, 1e-4, 1e-3),
                       ::testing::Values(0.001, 0.01, 0.1)));

// --- Mixer round trip across carriers ---------------------------------------------

class MixerSweep : public ::testing::TestWithParam<double> {};

TEST_P(MixerSweep, DownconversionRecoversAmplitude) {
  const double carrier = GetParam();
  const double fs = 96000.0;
  const dsp::Signal tone = testing::make_tone(carrier, 0.6, 0.1, fs);
  const auto bb = dsp::downconvert_filtered(tone, carrier, 1500.0, 5);
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = bb.size() / 2; i < bb.size(); ++i) {
    acc += std::abs(bb.samples[i]);
    ++n;
  }
  EXPECT_NEAR(acc / static_cast<double>(n), 0.6, 0.01) << carrier;
}

TEST_P(MixerSweep, AdjacentCarrierIsRejected) {
  const double carrier = GetParam();
  const double fs = 96000.0;
  // 3 kHz away: outside the 1.5 kHz low-pass.
  const dsp::Signal interferer = testing::make_tone(carrier + 3000.0, 0.6, 0.1, fs);
  const auto bb = dsp::downconvert_filtered(interferer, carrier, 1500.0, 5);
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = bb.size() / 2; i < bb.size(); ++i) {
    acc += std::abs(bb.samples[i]);
    ++n;
  }
  EXPECT_LT(acc / static_cast<double>(n), 0.05) << carrier;
}

INSTANTIATE_TEST_SUITE_P(Carriers, MixerSweep,
                         ::testing::Values(12000.0, 15000.0, 18000.0, 20000.0));

// --- PWM decode robustness across noise on the sliced stream -----------------------

class PwmNoiseSweep : public ::testing::TestWithParam<int> {};

TEST_P(PwmNoiseSweep, SurvivesShortGlitches) {
  // Random short 0->1->0 glitches inside low periods must not fabricate
  // valid symbols (their intervals fall outside tolerance and are skipped).
  const int n_glitches = GetParam();
  Rng rng(300 + n_glitches);
  phy::PwmParams params{5e-3};
  const double fs = 96000.0;
  const auto bits = rng.bits(24);
  auto wave = phy::pwm_encode(bits, params, fs);
  for (int g = 0; g < n_glitches; ++g) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wave.size()) - 10));
    // 2-sample blip.
    if (wave[pos] == 0 && wave[pos + 3] == 0) {
      wave[pos + 1] = 1;
      wave[pos + 2] = 1;
    }
  }
  const auto decoded = phy::pwm_decode(wave, params, fs);
  // Glitches may corrupt adjacent symbols but must not crash or explode the
  // output length.
  EXPECT_LE(decoded.size(), bits.size() + static_cast<std::size_t>(n_glitches) + 2);
}

INSTANTIATE_TEST_SUITE_P(Glitches, PwmNoiseSweep, ::testing::Values(0, 1, 3, 8));

}  // namespace
}  // namespace pab
