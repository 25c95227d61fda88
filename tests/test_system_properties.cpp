// System-level property sweeps (parameterized): invariants that must hold
// across the whole operating envelope, not just at the paper's set points.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "channel/tank.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/link.hpp"
#include "core/projector.hpp"
#include "phy/fec.hpp"
#include "phy/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

// --- Recto-piezo invariants across the tunable band ---------------------------

class RectoPiezoSweep : public ::testing::TestWithParam<double> {};

TEST_P(RectoPiezoSweep, AbsorptiveNullAtMatchAndVoltagePeakNearby) {
  const double f_match = GetParam();
  const auto rp = circuit::make_recto_piezo(f_match);
  EXPECT_NEAR(std::abs(rp.gamma_absorptive(f_match)), 0.0, 1e-6);

  double peak_v = 0.0, peak_f = 0.0;
  for (double f = 11000.0; f <= 21000.0; f += 50.0) {
    const double v = rp.rectified_open_voltage(f, 80.0);
    if (v > peak_v) { peak_v = v; peak_f = f; }
  }
  // The harvesting peak tracks the electrical match within a few hundred Hz
  // (pulled slightly toward the mechanical resonance).
  EXPECT_NEAR(peak_f, f_match, 450.0);
  EXPECT_GT(peak_v, 2.5);  // powers up at this field strength
}

TEST_P(RectoPiezoSweep, HarvestNeverExceedsCapturedPower) {
  const double f_match = GetParam();
  const auto rp = circuit::make_recto_piezo(f_match);
  constexpr double kRhoC = 1.48e6;
  for (double p : {20.0, 80.0, 300.0}) {
    const double captured =
        p * p / (2.0 * kRhoC) * rp.transducer().aperture_area();
    for (double f = 12000.0; f <= 20000.0; f += 1000.0) {
      EXPECT_LE(rp.harvested_dc_power(f, p), captured * (1.0 + 1e-9))
          << "f=" << f << " p=" << p;
    }
  }
}

TEST_P(RectoPiezoSweep, BandwidthEfficiencyMonotoneInBitrate) {
  const double f_match = GetParam();
  const auto rp = circuit::make_recto_piezo(f_match);
  double prev = 1.1;
  for (double rate : {200.0, 1000.0, 3000.0, 6000.0}) {
    const double eta = rp.bandwidth_efficiency(f_match, rate);
    EXPECT_GT(eta, 0.0);
    EXPECT_LE(eta, 1.0);
    EXPECT_LE(eta, prev + 1e-9) << rate;
    prev = eta;
  }
}

INSTANTIATE_TEST_SUITE_P(MatchFrequencies, RectoPiezoSweep,
                         ::testing::Values(14000.0, 15000.0, 16000.0, 17000.0,
                                           18000.0));

// --- Full waveform link across the usable bitrate table -----------------------

class LinkBitrateSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinkBitrateSweep, CloseRangeLinkDecodesErrorFree) {
  const double bitrate = GetParam();
  sim::Scenario sc =
      sim::Scenario::pool_a().with_seed(static_cast<std::uint64_t>(bitrate));
  sc.reader.projector = {1.2, 1.5, 0.65};
  sc.reader.hydrophone = {1.8, 1.5, 0.65};
  sc.field.set_position(0, {1.5, 2.1, 0.65});
  sc.waveform.bitrate = bitrate;
  const sim::Session session(sc);
  const auto out = session.run_trial<sim::TrialKind::kUplink>(/*trial=*/0);
  ASSERT_TRUE(out.ok()) << "rate=" << bitrate << ": " << out.error().message();
  EXPECT_EQ(out.value().ber, 0.0) << "rate=" << bitrate;
}

// The paper's usable range in quiet conditions: 100 bps - 2.8 kbps.
INSTANTIATE_TEST_SUITE_P(Rates, LinkBitrateSweep,
                         ::testing::Values(100.0, 200.0, 400.0, 600.0, 800.0,
                                           1000.0, 2000.0, 2800.0));

// --- Channel invariants across geometry ----------------------------------------

class TankSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(TankSweep, EnergyDecaysWithDistanceOnAverage) {
  const auto [x, y, z] = GetParam();
  const channel::Tank tank = channel::make_pool_a();
  const channel::Vec3 src{x, y, z};
  // Compare the summed tap energy at a nearby vs a distant receiver (tap
  // energy, not coherent sum: robust to individual fading nulls).
  const auto energy_at = [&](const channel::Vec3& rx) {
    double e = 0.0;
    for (const auto& t : channel::image_method_taps(tank, src, rx, 2, 15000.0))
      e += t.gain * t.gain;
    return e;
  };
  const channel::Vec3 near{std::min(x + 0.4, 2.9), y, z};
  const channel::Vec3 far{std::min(x + 1.6, 2.9), std::min(y + 1.6, 3.9), z};
  EXPECT_GT(energy_at(near), energy_at(far));
}

TEST_P(TankSweep, CoherentGainBoundedByTapSum) {
  const auto [x, y, z] = GetParam();
  const channel::Tank tank = channel::make_pool_a();
  const channel::Vec3 src{x, y, z};
  const channel::Vec3 rx{2.2, 3.0, 0.7};
  const auto taps = channel::image_method_taps(tank, src, rx, 2, 15000.0);
  double abs_sum = 0.0;
  for (const auto& t : taps) abs_sum += std::abs(t.gain);
  for (double f : {12000.0, 15000.0, 18000.0}) {
    EXPECT_LE(channel::coherent_gain(taps, f), abs_sum * (1.0 + 1e-9)) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, TankSweep,
    ::testing::Values(std::make_tuple(0.4, 0.5, 0.4),
                      std::make_tuple(1.0, 1.0, 0.65),
                      std::make_tuple(0.6, 2.0, 0.9),
                      std::make_tuple(1.4, 0.8, 0.5)));

// --- Packet pipeline across payload sizes ---------------------------------------

class PacketPipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacketPipelineSweep, WaveformRoundTripWithCrc) {
  const auto payload_len = static_cast<std::size_t>(GetParam());
  core::SimConfig sc = sim::Scenario::pool_a().medium;
  core::LinkSimulator sim(sc, core::Placement{});
  const core::Projector proj(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);

  Rng rng(100 + GetParam());
  phy::UplinkPacket packet;
  packet.node_id = 9;
  packet.payload = rng.bytes(payload_len);
  const auto bits = packet.to_bits(false);

  Rng noise(sc.seed);
  const auto out = sim.run_and_decode(proj, fe, bits, sim::Waveform{}, noise);
  ASSERT_TRUE(out.ok()) << "len=" << payload_len;
  const auto decoded = phy::UplinkPacket::from_bits(out.value().demod.bits, false);
  ASSERT_TRUE(decoded.has_value()) << "len=" << payload_len;
  EXPECT_EQ(decoded->payload, packet.payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, PacketPipelineSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

// --- FEC burst tolerance across burst lengths -----------------------------------

class FecBurstSweep : public ::testing::TestWithParam<int> {};

TEST_P(FecBurstSweep, BurstsUpToInterleaverDepthAreCorrected) {
  const int burst = GetParam();
  Rng rng(50 + burst);
  const auto data = rng.bits(112);
  auto coded = phy::fec_protect(data);
  // Inject the burst at several positions.
  for (std::size_t start = 0; start + burst <= coded.size();
       start += coded.size() / 5) {
    auto corrupted = coded;
    for (int i = 0; i < burst; ++i) corrupted[start + static_cast<std::size_t>(i)] ^= 1;
    EXPECT_EQ(phy::fec_recover(corrupted, 112), data)
        << "burst=" << burst << " at " << start;
  }
}

// Interleaver depth 7: bursts up to 7 land one-per-codeword.
INSTANTIATE_TEST_SUITE_P(Bursts, FecBurstSweep, ::testing::Values(1, 3, 5, 7));

}  // namespace
}  // namespace pab
