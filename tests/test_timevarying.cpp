// Time-varying channel tests: mobility Doppler and surface-wave fading.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/timevarying.hpp"
#include "channel/water.hpp"
#include "phy/cfo.hpp"
#include "util/units.hpp"

namespace pab::channel {
namespace {

dsp::BasebandSignal cw_envelope(double amp, double duration, double fs,
                                double carrier) {
  dsp::BasebandSignal s;
  s.sample_rate = fs;
  s.carrier_hz = carrier;
  s.samples.assign(static_cast<std::size_t>(duration * fs), dsp::cplx(amp, 0.0));
  return s;
}

TEST(Mobility, DopplerShiftFormula) {
  MovingPathConfig cfg;
  cfg.source = {0, 0, 0};
  cfg.rx_start = {10.0, 0, 0};
  cfg.rx_velocity = {-1.0, 0, 0};  // closing at 1 m/s
  const double c = sound_speed_mackenzie(cfg.water);
  EXPECT_NEAR(doppler_shift_at(cfg, 15000.0, 0.0), 15000.0 / c, 1e-6);
  // Receding flips the sign.
  cfg.rx_velocity = {2.0, 0, 0};
  EXPECT_NEAR(doppler_shift_at(cfg, 15000.0, 0.0), -2.0 * 15000.0 / c, 1e-6);
  // Transverse motion: no radial Doppler.
  cfg.rx_velocity = {0, 3.0, 0};
  EXPECT_NEAR(doppler_shift_at(cfg, 15000.0, 0.0), 0.0, 1e-9);
}

TEST(Mobility, WaveformDopplerMatchesFormula) {
  // Propagate a CW through a moving path and measure the baseband rotation
  // rate with the receiver's CFO estimator.
  MovingPathConfig cfg;
  cfg.source = {0, 0, 0};
  cfg.rx_start = {20.0, 0, 0};
  cfg.rx_velocity = {-2.0, 0, 0};  // closing at 2 m/s (a slow swimmer)
  const double fs = 48000.0;
  const auto tx = cw_envelope(1.0, 0.5, fs, 15000.0);
  const auto rx = propagate_moving(tx, cfg);
  // Skip the leading flight time, then estimate rotation.
  const std::size_t skip = static_cast<std::size_t>(0.05 * fs);
  const std::vector<dsp::cplx> seg(rx.samples.begin() + skip,
                                   rx.samples.end() - skip);
  const double measured = phy::estimate_cfo_hz(seg, fs);
  const double expected = doppler_shift_at(cfg, 15000.0, 0.0);
  EXPECT_NEAR(measured, expected, std::abs(expected) * 0.05 + 0.05);
}

TEST(Mobility, AmplitudeFollowsRange) {
  MovingPathConfig cfg;
  cfg.source = {0, 0, 0};
  cfg.rx_start = {5.0, 0, 0};
  cfg.rx_velocity = {5.0, 0, 0};  // receding fast
  const double fs = 48000.0;
  const auto tx = cw_envelope(1.0, 1.0, fs, 15000.0);
  const auto rx = propagate_moving(tx, cfg);
  const double early = std::abs(rx.samples[static_cast<std::size_t>(0.1 * fs)]);
  const double late = std::abs(rx.samples[static_cast<std::size_t>(0.9 * fs)]);
  EXPECT_GT(early, late);
  // 1/r: at t=0.1 the range is ~5.5 m, at t=0.9 ~9.5 m.
  EXPECT_NEAR(early / late, 9.5 / 5.5, 0.15);
}

TEST(Mobility, StationaryMatchesFreeField) {
  MovingPathConfig cfg;
  cfg.source = {0, 0, 0};
  cfg.rx_start = {3.0, 0, 0};
  cfg.rx_velocity = {0, 0, 0};
  const double fs = 48000.0;
  const auto tx = cw_envelope(1.0, 0.2, fs, 15000.0);
  const auto rx = propagate_moving(tx, cfg);
  const double steady = std::abs(rx.samples[rx.size() / 2]);
  EXPECT_NEAR(steady, path_amplitude_gain(3.0, 15000.0), 1e-3);
}

TEST(WavySurface, FlatSurfaceIsStaticTwoRay) {
  WavySurfaceConfig cfg;
  cfg.source = {0, 0, 0.5};
  cfg.receiver = {4.0, 0, 0.5};
  cfg.surface_z = 1.0;
  cfg.wave_amplitude = 0.0;  // flat: classic Lloyd's mirror, static
  const double fs = 48000.0;
  const auto tx = cw_envelope(1.0, 0.3, fs, 15000.0);
  const auto rx = propagate_wavy(tx, cfg);
  const double a = std::abs(rx.samples[rx.size() / 3]);
  const double b = std::abs(rx.samples[2 * rx.size() / 3]);
  EXPECT_NEAR(a, b, 1e-6);
}

TEST(WavySurface, WavesModulateTheEnvelope) {
  WavySurfaceConfig cfg;
  cfg.source = {0, 0, 0.5};
  cfg.receiver = {4.0, 0, 0.5};
  cfg.surface_z = 1.0;
  cfg.wave_amplitude = 0.05;
  cfg.wave_freq_hz = 2.0;
  const double fs = 48000.0;
  const auto tx = cw_envelope(1.0, 1.0, fs, 15000.0);
  const auto rx = propagate_wavy(tx, cfg);
  // Envelope varies over a wave period once the flight transient passed.
  double lo = 1e300, hi = 0.0;
  for (std::size_t i = rx.size() / 2; i < rx.size(); ++i) {
    const double v = std::abs(rx.samples[i]);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi / lo, 1.05);  // visible fading
}

TEST(WavySurface, FadeDepthGrowsWithWaveAmplitude) {
  WavySurfaceConfig small;
  small.source = {0, 0, 0.5};
  small.receiver = {4.0, 0, 0.5};
  small.surface_z = 1.0;
  small.wave_amplitude = 0.01;
  WavySurfaceConfig big = small;
  big.wave_amplitude = 0.10;
  EXPECT_GT(fade_depth_db(big, 15000.0), fade_depth_db(small, 15000.0));
}

// Regression: sample_at used to reject any position with i + 1 >= size, so
// the whole interval [size-1, size) -- where x[size-1] is perfectly valid --
// read as silence, truncating the tail of every delayed path.  The last
// sample must be readable exactly, and the final fractional interval must
// decay linearly into the implicit zero-padding instead of cutting to zero.
// --- event-timestamp accessors (sim::Timeline samples the channel at event
// --- times rather than per baseband sample) ---------------------------------

TEST(EventSampling, PositionFollowsTrajectory) {
  MovingPathConfig cfg;
  cfg.source = {0.0, 0.0, 0.0};
  cfg.rx_start = {2.0, 1.0, -0.5};
  cfg.rx_velocity = {0.5, -0.25, 0.1};
  const Vec3 p0 = moving_position_at(cfg, 0.0);
  EXPECT_DOUBLE_EQ(p0.x, 2.0);
  EXPECT_DOUBLE_EQ(p0.y, 1.0);
  EXPECT_DOUBLE_EQ(p0.z, -0.5);
  const Vec3 p4 = moving_position_at(cfg, 4.0);
  EXPECT_DOUBLE_EQ(p4.x, 2.0 + 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(p4.y, 1.0 - 0.25 * 4.0);
  EXPECT_DOUBLE_EQ(p4.z, -0.5 + 0.1 * 4.0);
}

TEST(EventSampling, DopplerAtZeroMatchesLegacyAccessor) {
  MovingPathConfig cfg;
  cfg.rx_start = {3.0, 0.0, 0.0};
  cfg.rx_velocity = {-0.4, 0.2, 0.0};
  // A closing node's shift flips sign once it passes the source; a receding
  // one's stays negative as the geometry opens up.
  EXPECT_GT(doppler_shift_at(cfg, 18500.0, 0.0), 0.0);
  EXPECT_LT(doppler_shift_at(cfg, 18500.0, 20.0), 0.0);  // past the source
  cfg.rx_velocity = {0.4, 0.0, 0.0};  // receding along the boresight
  EXPECT_LT(doppler_shift_at(cfg, 18500.0, 0.0), 0.0);
  EXPECT_NEAR(doppler_shift_at(cfg, 18500.0, 0.0),
              doppler_shift_at(cfg, 18500.0, 10.0), 1e-9);
}

TEST(EventSampling, PathGainFallsAsNodeRecedes) {
  MovingPathConfig cfg;
  cfg.rx_start = {1.0, 0.0, 0.0};
  cfg.rx_velocity = {0.5, 0.0, 0.0};
  const double g0 = moving_path_gain_at(cfg, 18500.0, 0.0);
  const double g1 = moving_path_gain_at(cfg, 18500.0, 2.0);
  const double g2 = moving_path_gain_at(cfg, 18500.0, 6.0);
  EXPECT_GT(g0, g1);
  EXPECT_GT(g1, g2);
  EXPECT_GT(g2, 0.0);
  // Spreading dominates at these ranges: gain roughly halves with distance.
  EXPECT_NEAR(g0 / g1, 2.0, 0.1);
}

TEST(EventSampling, WavyGainOscillatesAtTheWavePeriod) {
  WavySurfaceConfig cfg;
  cfg.source = {0.0, 0.0, 0.0};
  cfg.receiver = {4.0, 0.0, 0.0};
  cfg.surface_z = 0.6;
  cfg.wave_amplitude = 0.08;
  cfg.wave_freq_hz = 0.5;
  const double period = 1.0 / cfg.wave_freq_hz;
  const double g0 = wavy_gain_at(cfg, 18500.0, 0.0);
  EXPECT_GT(g0, 0.0);
  // Periodic in the wave period, and actually moving within it.
  EXPECT_NEAR(wavy_gain_at(cfg, 18500.0, cfg.wave_freq_hz * period), g0,
              1e-9);
  double min_g = g0;
  double max_g = g0;
  for (int i = 1; i < 50; ++i) {
    const double t = period * i / 50.0;
    const double g = wavy_gain_at(cfg, 18500.0, cfg.wave_freq_hz * t);
    min_g = std::min(min_g, g);
    max_g = std::max(max_g, g);
  }
  EXPECT_GT(max_g, min_g * 1.05);
  // The instantaneous values stay inside the fade envelope fade_depth_db
  // sweeps (same geometry, same coherent sum).
  EXPECT_GT(fade_depth_db(cfg, 18500.0),
            20.0 * std::log10(max_g / min_g) - 1e-6);
}

TEST(SampleAt, LastSampleIsNotTruncated) {
  const std::vector<dsp::cplx> x = {{1.0, 0.0}, {2.0, 0.0}, {4.0, -1.0}};
  // Integer positions read back exactly -- including the final one.
  EXPECT_EQ(sample_at(x, 0.0), x[0]);
  EXPECT_EQ(sample_at(x, 1.0), x[1]);
  EXPECT_EQ(sample_at(x, 2.0), x[2]);  // failed (returned 0) pre-fix
  // The final interval interpolates toward zero-padding.
  const auto tail = sample_at(x, 2.25);
  EXPECT_NEAR(tail.real(), 0.75 * 4.0, 1e-12);
  EXPECT_NEAR(tail.imag(), 0.75 * -1.0, 1e-12);
  // Outside the record stays zero.
  EXPECT_EQ(sample_at(x, -0.5), dsp::cplx{});
  EXPECT_EQ(sample_at(x, 3.0), dsp::cplx{});
  EXPECT_EQ(sample_at(x, 3.5), dsp::cplx{});
}

TEST(SampleAt, SingleSampleRecordIsReadable) {
  // The degenerate one-sample record: every in-range read used to return
  // zero because i + 1 >= size held for the only valid index.
  const std::vector<dsp::cplx> x = {{3.0, 0.5}};
  EXPECT_EQ(sample_at(x, 0.0), x[0]);
  const auto mid = sample_at(x, 0.5);
  EXPECT_NEAR(mid.real(), 1.5, 1e-12);
  EXPECT_NEAR(mid.imag(), 0.25, 1e-12);
}

TEST(WavySurface, EndpointAboveSurfaceThrows) {
  WavySurfaceConfig cfg;
  cfg.source = {0, 0, 1.5};  // above the 1.0 m surface
  cfg.receiver = {4.0, 0, 0.5};
  const auto tx = cw_envelope(1.0, 0.01, 48000.0, 15000.0);
  EXPECT_THROW((void)propagate_wavy(tx, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pab::channel
