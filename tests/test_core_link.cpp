// Integration tests: full waveform-level link, downlink to a node, and the
// two-node collision pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/transact.hpp"
#include "core/link.hpp"
#include "core/network.hpp"
#include "core/projector.hpp"
#include "dsp/simd.hpp"
#include "mac/protocol.hpp"
#include "node/node.hpp"
#include "phy/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"

namespace pab::core {
namespace {

Projector standard_projector(double drive_v = 50.0) {
  return Projector(piezo::make_projector_transducer(), drive_v);
}

TEST(Integration, UplinkDecodesCleanly) {
  LinkSimulator sim(sim::Scenario::pool_a().medium, Placement{});
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(21);
  const auto bits = rng.bits(64);
  sim::Waveform cfg;
  pab::Rng noise(sim.config().seed);
  const auto out = sim.run_and_decode(proj, fe, bits, cfg, noise);
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(phy::bit_error_rate(bits, out.value().demod.bits), 0.0);
  EXPECT_GT(out.value().demod.snr_db, 3.0);
}

TEST(Integration, FullPacketWithCrc) {
  LinkSimulator sim(sim::Scenario::pool_a().medium, Placement{});
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);

  phy::UplinkPacket packet;
  packet.node_id = 3;
  packet.payload = node::encode_ph_payload(7.4);
  const auto bits = packet.to_bits(/*include_preamble=*/false);

  sim::Waveform cfg;
  pab::Rng noise(sim.config().seed);
  const auto out = sim.run_and_decode(proj, fe, bits, cfg, noise);
  ASSERT_TRUE(out.ok());
  const auto decoded =
      phy::UplinkPacket::from_bits(out.value().demod.bits, /*has_preamble=*/false);
  ASSERT_TRUE(decoded.has_value()) << "CRC failed";
  EXPECT_EQ(decoded->node_id, 3);
  EXPECT_NEAR(node::decode_ph_payload(decoded->payload), 7.4, 0.005);
}

TEST(Integration, SnrDropsWithDistance) {
  SimConfig sc = sim::Scenario::pool_a().medium;
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(22);
  const auto bits = rng.bits(48);

  Placement near;
  near.node = {1.0, 1.2, 0.65};
  Placement far;
  far.node = {2.5, 3.6, 0.65};

  LinkSimulator sim_near(sc, near);
  LinkSimulator sim_far(sc, far);
  pab::Rng noise_near(sc.seed);
  pab::Rng noise_far(sc.seed);
  const auto rn =
      sim_near.run_and_decode(proj, fe, bits, sim::Waveform{}, noise_near);
  const auto rf =
      sim_far.run_and_decode(proj, fe, bits, sim::Waveform{}, noise_far);
  ASSERT_TRUE(rn.ok());
  // The far node's channel amplitude must be weaker.
  if (rf.ok()) {
    EXPECT_LT(rf.value().demod.channel_amp, rn.value().demod.channel_amp);
  }
}

TEST(Integration, OffResonanceCarrierWeakensModulation) {
  LinkSimulator sim(sim::Scenario::pool_a().medium, Placement{});
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(23);
  const auto bits = rng.bits(32);
  sim::Waveform on;
  on.carrier_hz = 15000.0;
  sim::Waveform off;
  off.carrier_hz = 12000.0;
  pab::Rng noise(sim.config().seed);
  const auto r_on = sim.run_uplink(proj, fe, bits, on, noise);
  const auto r_off = sim.run_uplink(proj, fe, bits, off, noise);
  EXPECT_LT(r_off.modulation_pressure_pa, r_on.modulation_pressure_pa);
}

TEST(Integration, DownlinkQueryReachesNode) {
  LinkSimulator sim(sim::Scenario::pool_a().medium, Placement{});
  const auto proj = standard_projector(300.0);
  sense::Environment env;
  node::PabNode node(node::NodeConfig{}, &env);
  // Power up first (strong CW on resonance).
  node.cold_start(15000.0, sim.incident_pressure(proj, 15000.0), 60.0);
  ASSERT_TRUE(node.powered_up());

  const auto query = mac::make_read_temperature(node.config().id);
  const auto sliced = sim.downlink_sliced_envelope(
      proj, query, node.config().downlink_pwm, 15000.0);
  const auto received = node.receive_downlink(sliced, sim.config().sample_rate);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->command, phy::Command::kReadTemperature);
  EXPECT_EQ(received->address, node.config().id);
}

TEST(Integration, EndToEndQueryResponseTransaction) {
  // The full loop: downlink query -> node decodes -> node senses -> node
  // backscatters -> hydrophone decodes -> reading matches the environment.
  SimConfig sc = sim::Scenario::pool_a().medium;
  const LinkSimulator sim(sc, Placement{});
  const auto proj = standard_projector(300.0);
  sense::Environment env;
  env.temperature_c = 17.25;
  node::NodeConfig ncfg;
  ncfg.node_depth_m = 0.0;
  node::PabNode node(ncfg, &env);
  node.cold_start(15000.0, sim.incident_pressure(proj, 15000.0), 60.0);
  ASSERT_TRUE(node.powered_up());

  const auto query = mac::make_read_temperature(node.config().id);
  pab::Rng noise(sc.seed);
  const auto packet = transact(sim, proj, node, query, 15000.0, noise);
  ASSERT_TRUE(packet.ok()) << packet.error().message();
  const auto reading = mac::parse_response(query, packet.value());
  ASSERT_TRUE(reading.has_value());
  EXPECT_NEAR(reading->value, 17.25, 0.2);
}

TEST(Integration, CollisionZeroForcingImprovesSinr) {
  // Fig. 10's mechanism end-to-end at its location 1: concurrent 15/18 kHz
  // backscatter, SINR after projection exceeds SINR before -- on every one
  // of 20 noise seeds, so the claim cannot rest on a lucky draw.
  const sim::Scenario sc = sim::Scenario::pool_a_concurrent();
  const MultiNodeSimulator sim(sc.medium, sc.reader.projector,
                               sc.reader.hydrophone, sc.field.positions());
  const auto proj = sc.make_projector();
  const std::vector<circuit::RectoPiezo> nodes{sc.make_front_end(0),
                                               sc.make_front_end(1)};
  for (std::uint64_t seed = 42; seed < 62; ++seed) {
    SCOPED_TRACE(seed);
    pab::Rng noise(seed);
    const auto r = sim.run(proj, nodes, sc.fdma, noise);
    // After projection both streams are decodable; the interference-limited
    // stream gains several dB and neither materially degrades.
    EXPECT_GT(r.sinr_after_db[0], r.sinr_before_db[0] - 1.0);
    EXPECT_GT(r.sinr_after_db[1], r.sinr_before_db[1] + 2.0);
    EXPECT_GT(r.sinr_after_db[0], 3.0);
    EXPECT_GT(r.sinr_after_db[1], 3.0);
    EXPECT_LT(r.ber_after[0], 0.05);
    EXPECT_LT(r.ber_after[1], 0.05);
    EXPECT_LT(r.condition_number, 100.0);
  }
}

TEST(Integration, SwimmingPoolLinkDecodes) {
  // The paper "validated that the system operates correctly in an indoor
  // swimming pool" (section 5.1d); so must we.
  SimConfig sc = sim::Scenario::swimming_pool().medium;
  Placement pl;
  pl.projector = {5.0, 10.0, 1.0};
  pl.hydrophone = {5.0, 11.5, 1.0};
  pl.node = {6.2, 12.0, 1.0};
  LinkSimulator sim(sc, pl);
  const auto proj = standard_projector(100.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(61);
  const auto bits = rng.bits(64);
  pab::Rng noise(sc.seed);
  const auto out = sim.run_and_decode(proj, fe, bits, sim::Waveform{}, noise);
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(phy::bit_error_rate(bits, out.value().demod.bits), 0.0);
}

// fig8's close placement at 100 bps: each of the three tap convolutions
// runs 32 overlap-save blocks, and 29 and 30 of the two CW convolutions'
// blocks lie inside the constant envelope, so 57 of 96 are copies.
TEST(Integration, UplinkCaptureCopiesRepeatedConvolutionBlocks) {
  Placement close;
  close.projector = {1.2, 1.5, 0.65};
  close.hydrophone = {1.8, 1.5, 0.65};
  close.node = {1.5, 2.1, 0.65};
  sim::Scenario sc =
      sim::Scenario::pool_a().with_seed(1).with_placement(close);
  sc.medium.noise.psd_db_re_upa = 82.0;
  sc.waveform.bitrate = 100.0;
  sc.waveform.payload_bits = 96;
  const sim::Session session(sc);
  const dsp::simd::DispatchGuard fft_path(dsp::simd::active(), true);
  auto& reg = obs::MetricRegistry::global();
  const auto count = [&](const char* name) {
    return reg.counter(name).value();
  };
  const std::uint64_t hits = count("dsp.fftconv.hits");
  const std::uint64_t blocks = count("dsp.fftconv.blocks");
  const std::uint64_t reused = count("dsp.fftconv.blocks_reused");
  const auto out = session.run_trial<sim::TrialKind::kUplink>(0);
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(count("dsp.fftconv.hits") - hits, 3u);
  EXPECT_EQ(count("dsp.fftconv.blocks") - blocks, 96u);
  EXPECT_EQ(count("dsp.fftconv.blocks_reused") - reused, 57u);
}

// A direct caller gets an exception for a waveform timing the link cannot
// run (sim::Session reports it as kInvalidArgument instead).
TEST(Integration, UplinkRejectsUnrunnableWaveformTiming) {
  const LinkSimulator sim(sim::Scenario::pool_a().medium, Placement{});
  const auto proj = standard_projector();
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(3);
  const auto bits = rng.bits(16);
  for (const double start : {-0.01, 1e300, std::nan("")}) {
    sim::Waveform cfg;
    cfg.node_start_s = start;
    EXPECT_THROW((void)sim.run_uplink(proj, fe, bits, cfg, rng),
                 std::invalid_argument)
        << start;
  }
  sim::Waveform negative_tail;
  negative_tail.tail_s = -1.0;
  EXPECT_THROW((void)sim.run_uplink(proj, fe, bits, negative_tail, rng),
               std::invalid_argument);
}

TEST(Integration, ProjectorIdealIsFlat) {
  const auto proj = Projector::ideal(100.0);
  EXPECT_NEAR(proj.pressure_at_1m(12000.0), 100.0, 1e-12);
  EXPECT_NEAR(proj.pressure_at_1m(18000.0), 100.0, 1e-12);
}

TEST(Integration, PhysicalProjectorRollsOff) {
  const auto proj = standard_projector();
  EXPECT_GT(proj.pressure_at_1m(15500.0), proj.pressure_at_1m(11000.0));
  EXPECT_GT(proj.pressure_at_1m(15500.0), proj.pressure_at_1m(20000.0));
}

}  // namespace
}  // namespace pab::core
