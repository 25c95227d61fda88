// Robust-uplink (FEC) protocol mode: node-side switch, waveform sizing, and
// end-to-end decoding through the simulator.
#include <gtest/gtest.h>

#include "core/link.hpp"
#include "mac/protocol.hpp"
#include "node/node.hpp"
#include "phy/fec.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/scenario.hpp"

namespace pab {
namespace {

sense::Environment default_env() { return sense::Environment{}; }

void power_up(node::PabNode& node) {
  node.cold_start(node.resonance_hz(), 600.0, 50.0);
  ASSERT_TRUE(node.powered_up());
}

TEST(RobustMode, CommandTogglesNodeState) {
  const auto env = default_env();
  node::PabNode node(node::NodeConfig{}, &env);
  power_up(node);
  EXPECT_FALSE(node.robust_uplink());
  const auto on = node.process_query(mac::make_set_robust_mode(node.config().id, true));
  ASSERT_TRUE(on.has_value());
  EXPECT_TRUE(node.robust_uplink());
  const auto off = node.process_query(mac::make_set_robust_mode(node.config().id, false));
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(node.robust_uplink());
}

TEST(RobustMode, WaveformGrowsByCodeRate) {
  const auto env = default_env();
  node::NodeConfig plain_cfg;
  node::NodeConfig robust_cfg;
  robust_cfg.robust_uplink = true;
  node::PabNode plain(plain_cfg, &env);
  node::PabNode robust(robust_cfg, &env);

  phy::UplinkPacket packet;
  packet.node_id = 1;
  packet.payload = {1, 2, 3, 4};
  const auto waveform = [&](const node::PabNode& node) {
    return phy::scheme_waveform(phy::SchemeId::kFm0, node.uplink_body(packet),
                                node.bitrate(), 96000.0);
  };
  const auto w_plain = waveform(plain);
  const auto w_robust = waveform(robust);
  // Preamble is uncoded; the body grows by 7/4.
  const double body_bits = static_cast<double>(
      phy::UplinkPacket::bits_on_air(4, /*include_preamble=*/false));
  const double preamble_bits =
      static_cast<double>(phy::uplink_preamble_bits().size());
  const double expected_ratio =
      (preamble_bits + phy::fec_coded_size(static_cast<std::size_t>(body_bits))) /
      (preamble_bits + body_bits);
  EXPECT_NEAR(static_cast<double>(w_robust.size()) /
                  static_cast<double>(w_plain.size()),
              expected_ratio, 0.02);
}

TEST(RobustMode, EndToEndThroughSimulator) {
  core::SimConfig sc = sim::Scenario::pool_a().medium;
  core::LinkSimulator sim(sc, core::Placement{});
  const core::Projector proj(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);

  phy::UplinkPacket packet;
  packet.node_id = 6;
  packet.payload = {0xCA, 0xFE};
  Bits body = packet.to_bits(false);
  const Bits coded = phy::fec_protect(body);

  Rng noise(sc.seed);
  const auto run = sim.run_uplink(proj, fe, coded, sim::Waveform{}, noise);
  phy::DemodConfig dc;
  dc.sample_rate = sc.sample_rate;
  const auto decoded = phy::demodulate_packet(run.hydrophone_v, dc,
                                              packet.payload.size(),
                                              /*robust=*/true);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(decoded.value().payload, packet.payload);
  EXPECT_EQ(decoded.value().node_id, 6);
}

// Regression: the node charged a robust reply's backscatter energy on the
// uncoded bit count, as if the Hamming(7,4) body were not on the air.
TEST(RobustMode, ReplyEnergyCountsCodedBits) {
  const auto env = default_env();
  node::NodeConfig robust_cfg;
  robust_cfg.robust_uplink = true;
  node::PabNode plain(node::NodeConfig{}, &env);
  node::PabNode robust(robust_cfg, &env);
  power_up(plain);
  power_up(robust);

  // A pH reply carries 2 payload bytes: 12 preamble bits plus a 48-bit body,
  // which Hamming(7,4) grows to 84 bits.
  EXPECT_EQ(plain.uplink_bits_on_air(2), 60u);
  EXPECT_EQ(robust.uplink_bits_on_air(2), 96u);
  const auto reply_energy = [](node::PabNode& node) {
    EXPECT_TRUE(node.process_query(mac::make_read_ph(node.config().id))
                    .has_value());
    return node.ledger().total(energy::Category::kBackscatter);
  };
  const double e_plain = reply_energy(plain);
  const double e_robust = reply_energy(robust);
  EXPECT_NEAR(e_plain, 3.231e-05, 1e-08);
  EXPECT_NEAR(e_robust, 5.1696e-05, 1e-08);
  EXPECT_NEAR(e_robust / e_plain, 96.0 / 60.0, 1e-12);
}

TEST(RobustMode, SurvivesBurstThatBreaksPlainMode) {
  // Flip a burst of demodulated bits: plain CRC fails, robust recovers.
  phy::UplinkPacket packet;
  packet.node_id = 2;
  packet.payload = {0x12, 0x34, 0x56};
  const Bits body = packet.to_bits(false);

  // Plain: burst breaks the CRC.
  Bits corrupted_plain = body;
  for (std::size_t i = 10; i < 15; ++i) corrupted_plain[i] ^= 1;
  EXPECT_FALSE(phy::UplinkPacket::from_bits(corrupted_plain, false).has_value());

  // Robust: the same burst on the coded stream is corrected.
  Bits coded = phy::fec_protect(body);
  for (std::size_t i = 10; i < 15; ++i) coded[i] ^= 1;
  const Bits recovered = phy::fec_recover(coded, body.size());
  const auto packet_back = phy::UplinkPacket::from_bits(recovered, false);
  ASSERT_TRUE(packet_back.has_value());
  EXPECT_EQ(packet_back->payload, packet.payload);
}

TEST(RobustMode, ParseResponseHandlesAck) {
  const auto q = mac::make_set_robust_mode(3, true);
  phy::UplinkPacket ack;
  ack.node_id = 3;
  ack.payload = {1};
  const auto r = mac::parse_response(q, ack);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 1.0);
}

}  // namespace
}  // namespace pab
