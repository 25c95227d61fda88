// Acoustic channel tests: water properties, image-method multipath, noise.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "channel/noise.hpp"
#include "channel/propagation.hpp"
#include "channel/tank.hpp"
#include "channel/water.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::channel {
namespace {

TEST(Water, SoundSpeedFreshWater20C) {
  WaterProperties w;  // 20 C, S=0, 1 m
  const double c = sound_speed_mackenzie(w);
  EXPECT_GT(c, 1430.0);
  EXPECT_LT(c, 1500.0);
}

TEST(Water, SoundSpeedIncreasesWithTemperature) {
  WaterProperties cold{10.0, 0.0, 1.0, 998.0};
  WaterProperties warm{25.0, 0.0, 1.0, 998.0};
  EXPECT_GT(sound_speed_mackenzie(warm), sound_speed_mackenzie(cold));
}

TEST(Water, SeawaterFasterThanFresh) {
  WaterProperties fresh{15.0, 0.0, 5.0, 998.0};
  WaterProperties sea{15.0, 35.0, 5.0, 1025.0};
  EXPECT_GT(sound_speed_mackenzie(sea), sound_speed_mackenzie(fresh));
}

TEST(Water, ThorpAbsorptionIncreasesWithFrequency) {
  EXPECT_LT(thorp_absorption_db_per_km(1000.0), thorp_absorption_db_per_km(15000.0));
  EXPECT_LT(thorp_absorption_db_per_km(15000.0), thorp_absorption_db_per_km(50000.0));
  // ~ couple of dB/km at 15 kHz (paper's operating band).
  const double a15 = thorp_absorption_db_per_km(15000.0);
  EXPECT_GT(a15, 1.0);
  EXPECT_LT(a15, 5.0);
}

TEST(Water, TransmissionLossSphericalSpreading) {
  // Doubling distance adds ~6 dB of spreading loss (absorption negligible
  // at tank scales).
  const double tl1 = transmission_loss_db(2.0, 15000.0);
  const double tl2 = transmission_loss_db(4.0, 15000.0);
  EXPECT_NEAR(tl2 - tl1, 6.02, 0.05);
}

TEST(Water, PathGainMatchesLoss) {
  const double g = path_amplitude_gain(5.0, 15000.0);
  EXPECT_NEAR(db_from_amplitude_ratio(g), -transmission_loss_db(5.0, 15000.0), 1e-9);
}

TEST(Tank, PoolDimensionsMatchPaper) {
  const Tank a = make_pool_a();
  EXPECT_NEAR(a.size.x, 3.0, 1e-12);
  EXPECT_NEAR(a.size.y, 4.0, 1e-12);
  EXPECT_NEAR(a.size.z, 1.3, 1e-12);
  const Tank b = make_pool_b();
  EXPECT_NEAR(b.size.x, 1.2, 1e-12);
  EXPECT_NEAR(b.size.y, 10.0, 1e-12);
  EXPECT_NEAR(b.size.z, 1.0, 1e-12);
}

TEST(Tank, DirectTapDelayAndGain) {
  const Tank tank = make_pool_a();
  const Vec3 src{1.0, 1.0, 0.65};
  const Vec3 rx{2.0, 1.0, 0.65};
  const auto taps = image_method_taps(tank, src, rx, 0, 15000.0);
  ASSERT_EQ(taps.size(), 1u);  // order 0 = direct only
  const double c = sound_speed_mackenzie(tank.water);
  EXPECT_NEAR(taps[0].delay_s, 1.0 / c, 1e-9);
  EXPECT_NEAR(taps[0].gain, path_amplitude_gain(1.0, 15000.0), 1e-9);
}

TEST(Tank, FirstTapIsDirectPath) {
  const Tank tank = make_pool_a();
  const Vec3 src{0.5, 0.5, 0.65};
  const Vec3 rx{2.5, 3.5, 0.65};
  const auto taps = image_method_taps(tank, src, rx, 2, 15000.0);
  ASSERT_GT(taps.size(), 1u);
  EXPECT_EQ(taps.front().order, 0);
  for (std::size_t i = 1; i < taps.size(); ++i)
    EXPECT_GE(taps[i].delay_s, taps.front().delay_s);
}

TEST(Tank, TapCountGrowsWithOrder) {
  const Tank tank = make_pool_a();
  const Vec3 src{1.0, 1.0, 0.5};
  const Vec3 rx{2.0, 2.0, 0.5};
  const auto t0 = image_method_taps(tank, src, rx, 0, 15000.0);
  const auto t1 = image_method_taps(tank, src, rx, 1, 15000.0);
  const auto t2 = image_method_taps(tank, src, rx, 2, 15000.0);
  EXPECT_EQ(t0.size(), 1u);
  EXPECT_EQ(t1.size(), 7u);   // direct + 6 first-order walls
  EXPECT_GT(t2.size(), t1.size());
}

TEST(Tank, SurfaceReflectionInverts) {
  // A single surface bounce must carry the negative pressure-release
  // coefficient.
  Tank tank = make_pool_a();
  tank.wall_reflection = 0.0;   // kill wall echoes
  tank.bottom_reflection = 0.0;
  const Vec3 src{1.5, 2.0, 1.0};
  const Vec3 rx{1.6, 2.0, 1.0};
  const auto taps = image_method_taps(tank, src, rx, 1, 15000.0);
  // Direct + surface image survive (zero-gain taps still enumerate, so look
  // for the negative one).
  bool found_negative = false;
  for (const auto& t : taps)
    if (t.gain < -1e-12) found_negative = true;
  EXPECT_TRUE(found_negative);
}

TEST(Tank, EndpointsOutsideTankThrow) {
  const Tank tank = make_pool_a();
  EXPECT_THROW((void)image_method_taps(tank, {-1.0, 0.0, 0.0}, {1.0, 1.0, 0.5},
                                       1, 15000.0),
               std::invalid_argument);
}

TEST(Tank, CoherentGainPhasorSum) {
  // Two taps a half-wavelength apart in delay cancel.
  std::vector<PathTap> taps = {{0.0, 1.0, 0}, {1.0 / (2.0 * 15000.0), 1.0, 1}};
  EXPECT_NEAR(coherent_gain(taps, 15000.0), 0.0, 1e-9);
  // In phase: doubles.
  taps[1].delay_s = 1.0 / 15000.0;
  EXPECT_NEAR(coherent_gain(taps, 15000.0), 2.0, 1e-9);
}

TEST(Tank, FreeFieldTap) {
  WaterProperties w;
  const auto taps = free_field_tap({0, 0, 0}, {3.0, 4.0, 0.0}, 15000.0, w);
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_NEAR(taps[0].gain, path_amplitude_gain(5.0, 15000.0), 1e-9);
}

TEST(Noise, BandwidthScaling) {
  NoiseModel n{45.0};
  // 10x bandwidth -> +10 dB -> sqrt(10) in RMS.
  EXPECT_NEAR(n.rms_pressure_pa(10000.0) / n.rms_pressure_pa(1000.0),
              std::sqrt(10.0), 1e-9);
}

TEST(Noise, GeneratedPowerMatchesModel) {
  NoiseModel n{60.0};
  pab::Rng rng(1);
  std::vector<double> samples(100000);
  rng.gaussian_into(samples, 0.0, n.sample_stddev_pa(96000.0));
  const double measured = std::sqrt(
      testing::signal_power(std::span<const double>(samples)));
  EXPECT_NEAR(measured / n.sample_stddev_pa(96000.0), 1.0, 0.02);
}

TEST(Noise, WenzDecreasesInBand) {
  // In the 1-100 kHz region ambient noise falls with frequency.
  EXPECT_GT(wenz_noise_psd_db(1000.0), wenz_noise_psd_db(15000.0));
  EXPECT_GT(wenz_noise_psd_db(15000.0), wenz_noise_psd_db(80000.0));
}

TEST(Noise, WindRaisesNoise) {
  EXPECT_GT(wenz_noise_psd_db(15000.0, 0.5, 15.0),
            wenz_noise_psd_db(15000.0, 0.5, 1.0));
}

TEST(Propagation, ApplyTapsDelaysAndScales) {
  dsp::BasebandSignal x;
  x.sample_rate = 1000.0;
  x.carrier_hz = 0.0;  // no carrier rotation: a pure delay-and-scale
  x.samples = {1.0, 0.0, 0.0};
  const std::vector<PathTap> taps = {{0.002, 0.5, 0}};  // 2 samples, gain 0.5
  const auto y = apply_taps_baseband(x, taps);
  ASSERT_GE(y.size(), 3u);
  EXPECT_NEAR(y.samples[2].real(), 0.5, 1e-12);
  EXPECT_NEAR(y.samples[0].real(), 0.0, 1e-12);
}

TEST(Propagation, BasebandCarrierPhase) {
  dsp::BasebandSignal x;
  x.sample_rate = 96000.0;
  x.carrier_hz = 15000.0;
  x.samples.assign(10, dsp::cplx(1.0, 0.0));
  // Delay of one full carrier period: phase rotation = -2pi (identity).
  const std::vector<PathTap> taps = {{1.0 / 15000.0, 1.0, 0}};
  const auto y = apply_taps_baseband(x, taps);
  const std::size_t delay_n = static_cast<std::size_t>(96000.0 / 15000.0);
  EXPECT_NEAR(y.samples[delay_n + 1].real(), 1.0, 0.1);
  EXPECT_NEAR(std::arg(y.samples[delay_n + 1]), 0.0, 0.05);
}

TEST(Propagation, PoolBCorridorBeatsPoolAAtRange) {
  // The paper observes longer power-up range in the elongated Pool B because
  // the corridor focuses energy (section 6.2).  At a few meters the coherent
  // gain in B should generally exceed A's free-spreading trend.
  const Tank a = make_pool_a();
  const Tank b = make_pool_b();
  const double f = 15000.0;
  double sum_a = 0.0, sum_b = 0.0;
  int n = 0;
  for (double d = 2.0; d <= 3.5; d += 0.5) {
    const auto ta = image_method_taps(a, {1.5, 0.3, 0.65}, {1.5, 0.3 + d, 0.65}, 2, f);
    const auto tb = image_method_taps(b, {0.6, 0.3, 0.5}, {0.6, 0.3 + d, 0.5}, 2, f);
    sum_a += coherent_gain(ta, f);
    sum_b += coherent_gain(tb, f);
    ++n;
  }
  EXPECT_GT(sum_b / n, sum_a / n);
}

}  // namespace
}  // namespace pab::channel
