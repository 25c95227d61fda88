// Property-based (parameterized) tests: invariants swept over wide parameter
// ranges with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "circuit/matching.hpp"
#include "circuit/rectopiezo.hpp"
#include "dsp/iir.hpp"
#include "phy/crc.hpp"
#include "phy/fm0.hpp"
#include "phy/packet.hpp"
#include "phy/pwm.hpp"
#include "piezo/transducer.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

// --- FM0 round-trip across sizes and seeds ----------------------------------

class Fm0RoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Fm0RoundTrip, EncodeDecodeIdentity) {
  const auto [n_bits, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto bits = rng.bits(static_cast<std::size_t>(n_bits));
  const auto chips = phy::fm0_encode(bits);
  ASSERT_EQ(chips.size(), bits.size() * 2);
  EXPECT_EQ(testing::fm0_decode_hard(chips), bits);
  std::vector<double> soft(chips.begin(), chips.end());
  EXPECT_EQ(phy::fm0_decode_ml(soft), bits);
}

TEST_P(Fm0RoundTrip, ChipsAreAlwaysValid) {
  const auto [n_bits, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  const auto chips = phy::fm0_encode(rng.bits(static_cast<std::size_t>(n_bits)));
  for (auto c : chips) EXPECT_TRUE(c == 1 || c == -1);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fm0RoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 7, 32, 129, 512),
                       ::testing::Values(1, 2, 3)));

// --- PWM round-trip across unit durations -----------------------------------

class PwmRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(PwmRoundTrip, EncodeDecodeIdentity) {
  const double unit_s = GetParam();
  Rng rng(99);
  phy::PwmParams p{unit_s};
  const auto bits = rng.bits(24);
  const auto wave = phy::pwm_encode(bits, p, 96000.0);
  EXPECT_EQ(phy::pwm_decode(wave, p, 96000.0), bits);
}

INSTANTIATE_TEST_SUITE_P(Units, PwmRoundTrip,
                         ::testing::Values(0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3));

// --- CRC detects burst errors -------------------------------------------------

class CrcBurst : public ::testing::TestWithParam<int> {};

TEST_P(CrcBurst, DetectsBurstsUpTo16Bits) {
  const int burst_len = GetParam();
  Rng rng(7);
  const auto bits = rng.bits(128);
  const auto crc = phy::crc16_bits(bits);
  for (std::size_t pos = 0; pos + burst_len <= bits.size(); pos += 13) {
    auto corrupted = bits;
    for (int i = 0; i < burst_len; ++i) corrupted[pos + i] ^= 1;
    EXPECT_NE(phy::crc16_bits(corrupted), crc)
        << "undetected burst of " << burst_len << " at " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Bursts, CrcBurst, ::testing::Values(1, 2, 3, 8, 16));

// --- Packet round-trip across payload sizes -----------------------------------

class PacketRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PacketRoundTrip, UplinkIdentity) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(5 + GetParam());
  phy::UplinkPacket p;
  p.node_id = static_cast<std::uint8_t>(GetParam());
  p.payload = rng.bytes(n);
  const auto back = phy::UplinkPacket::from_bits(p.to_bits());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, p.payload);
  EXPECT_EQ(back->node_id, p.node_id);
}

INSTANTIATE_TEST_SUITE_P(Payloads, PacketRoundTrip,
                         ::testing::Values(0, 1, 2, 4, 16, 64, 255));

// --- Butterworth stability and -3 dB point across orders and cutoffs ----------

class ButterworthSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ButterworthSweep, StableWithCorrectCutoff) {
  const auto [order, cutoff] = GetParam();
  const double fs = 96000.0;
  const auto lp = dsp::butterworth_lowpass(order, cutoff, fs);
  EXPECT_TRUE(lp.is_stable());
  EXPECT_NEAR(std::abs(lp.response(cutoff, fs)), std::sqrt(0.5), 0.03);
  EXPECT_NEAR(std::abs(lp.response(cutoff / 20.0, fs)), 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ButterworthSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 12),
                       ::testing::Values(500.0, 2000.0, 8000.0, 20000.0)));

// --- Matching network optimality across frequencies and loads ------------------

class MatchingSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MatchingSweep, ConjugateMatchIsOptimal) {
  const auto [f_match, r_load] = GetParam();
  const auto xdcr = piezo::make_node_transducer();
  const auto zs = xdcr.thevenin_impedance(f_match);
  const auto net = circuit::MatchingNetwork::design(zs, r_load, f_match);
  const double at_design =
      net.power_transfer(f_match, zs, circuit::cplx(r_load, 0.0));
  EXPECT_NEAR(at_design, 1.0, 1e-6);
  // Transfer at the design point beats neighbors (local optimality).
  for (double off : {-2000.0, -1000.0, 1000.0, 2000.0}) {
    const auto zs_off = xdcr.thevenin_impedance(f_match + off);
    EXPECT_GE(at_design + 1e-9,
              net.power_transfer(f_match + off, zs_off,
                                 circuit::cplx(r_load, 0.0)))
        << "off=" << off;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Frequencies, MatchingSweep,
    ::testing::Combine(::testing::Values(13000.0, 15000.0, 16500.0, 18000.0),
                       ::testing::Values(1000.0, 20000.0, 100000.0)));

// --- Reflection coefficient bounds across the recto-piezo band -----------------

class GammaBounds : public ::testing::TestWithParam<double> {};

TEST_P(GammaBounds, ReflectionInUnitDisk) {
  const double f_match = GetParam();
  const auto rp = circuit::make_recto_piezo(f_match);
  for (double f = 10000.0; f <= 22000.0; f += 250.0) {
    const double g_abs = std::abs(rp.gamma_absorptive(f));
    const double g_ref = std::abs(rp.gamma_reflective(f));
    EXPECT_LE(g_abs, 1.0 + 1e-9) << f;
    EXPECT_NEAR(g_ref, 1.0, 1e-9) << f;  // short always reflects fully
    EXPECT_GE(rp.harvested_dc_power(f, 50.0), 0.0) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(MatchPoints, GammaBounds,
                         ::testing::Values(14000.0, 15000.0, 16000.0, 17000.0,
                                           18000.0));

// --- FM0 ML decoding degrades monotonically with noise -------------------------

TEST(Fm0NoiseProperty, BerIncreasesWithNoise) {
  Rng rng(31);
  double prev_ber = -1.0;
  for (double sigma : {0.3, 0.8, 1.4}) {
    std::size_t errors = 0, total = 0;
    for (int trial = 0; trial < 30; ++trial) {
      const auto bits = rng.bits(200);
      const auto chips = phy::fm0_encode(bits);
      std::vector<double> soft(chips.size());
      for (std::size_t i = 0; i < soft.size(); ++i)
        soft[i] = chips[i] + rng.gaussian(0.0, sigma);
      errors += hamming_distance(bits, phy::fm0_decode_ml(soft));
      total += bits.size();
    }
    const double ber = static_cast<double>(errors) / static_cast<double>(total);
    EXPECT_GT(ber, prev_ber) << "sigma=" << sigma;
    prev_ber = ber;
  }
}

}  // namespace
}  // namespace pab
