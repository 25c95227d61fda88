// PAB node tests: power-up lifecycle, downlink reception, command handling.
#include <gtest/gtest.h>

#include "node/node.hpp"
#include "phy/pwm.hpp"
#include "phy/scheme.hpp"

namespace pab::node {
namespace {

sense::Environment default_env() {
  sense::Environment env;
  env.ph = 7.0;
  env.temperature_c = 21.0;
  env.pressure_mbar = 1013.25;
  return env;
}

// Charge the node to power-up with a strong on-resonance carrier.
void power_up(PabNode& node) {
  // ~600 Pa incident (a projector at a couple hundred volts within a few
  // meters): harvested power is a few hundred microwatts, charging the
  // 1000 uF supercapacitor to 2.5 V within seconds.
  node.cold_start(node.resonance_hz(), 600.0, 50.0);
  ASSERT_TRUE(node.powered_up());
}

TEST(Node, ColdStartThenPowerUp) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  EXPECT_FALSE(node.powered_up());
  EXPECT_EQ(node.capacitor_voltage(), 0.0);
  power_up(node);
  EXPECT_GE(node.capacitor_voltage(), 2.5);
}

TEST(Node, NoPowerUpOffResonance) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  // Weak carrier far from the 15 kHz match: rectified ceiling below 2.5 V.
  EXPECT_GE(node.cold_start(11000.0, 30.0, 50.0), 50.0);
  EXPECT_FALSE(node.powered_up());
}

TEST(Node, IgnoresQueriesWhenUnpowered) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  EXPECT_FALSE(node.process_query(phy::DownlinkQuery{}).has_value());
}

TEST(Node, AnswersPing) {
  const auto env = default_env();
  NodeConfig cfg;
  cfg.id = 7;
  PabNode node(cfg, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.address = 7;
  q.command = phy::Command::kPing;
  const auto resp = node.process_query(q);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->node_id, 7);
  ASSERT_EQ(resp->payload.size(), 1u);
  EXPECT_EQ(resp->payload[0], 7);
}

TEST(Node, IgnoresOtherAddress) {
  const auto env = default_env();
  NodeConfig cfg;
  cfg.id = 7;
  PabNode node(cfg, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.address = 8;
  EXPECT_FALSE(node.process_query(q).has_value());
}

TEST(Node, AnswersBroadcast) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.address = phy::kBroadcastAddress;
  EXPECT_TRUE(node.process_query(q).has_value());
}

TEST(Node, PhQueryReturnsCorrectValue) {
  auto env = default_env();
  env.ph = 8.1;
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.command = phy::Command::kReadPh;
  const auto resp = node.process_query(q);
  ASSERT_TRUE(resp.has_value());
  EXPECT_NEAR(decode_ph_payload(resp->payload), 8.1, 0.15);
}

TEST(Node, TemperatureAndPressureQueries) {
  auto env = default_env();
  env.temperature_c = 18.5;
  NodeConfig cfg;
  cfg.node_depth_m = 0.0;
  PabNode node(cfg, &env);
  power_up(node);

  phy::DownlinkQuery qt;
  qt.command = phy::Command::kReadTemperature;
  const auto rt = node.process_query(qt);
  ASSERT_TRUE(rt.has_value());
  EXPECT_NEAR(decode_temperature_payload(rt->payload), 18.5, 0.2);

  phy::DownlinkQuery qp;
  qp.command = phy::Command::kReadPressure;
  const auto rp = node.process_query(qp);
  ASSERT_TRUE(rp.has_value());
  EXPECT_NEAR(decode_pressure_payload(rp->payload), 1013.25, 3.0);
}

TEST(Node, SetBitrateCommand) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.command = phy::Command::kSetBitrate;
  q.argument = 8;  // 3 kbps in the default table
  ASSERT_TRUE(node.process_query(q).has_value());
  EXPECT_NEAR(node.bitrate(), 3000.0, 1e-9);
  // Out-of-range index is rejected.
  q.argument = 200;
  EXPECT_FALSE(node.process_query(q).has_value());
}

TEST(Node, SetResonanceSwitchesBank) {
  const auto env = default_env();
  NodeConfig cfg;
  cfg.resonance_bank = {15000.0, 18000.0};
  PabNode node(cfg, &env);
  power_up(node);
  EXPECT_NEAR(node.resonance_hz(), 15000.0, 1e-9);
  phy::DownlinkQuery q;
  q.command = phy::Command::kSetResonance;
  q.argument = 1;
  ASSERT_TRUE(node.process_query(q).has_value());
  EXPECT_NEAR(node.resonance_hz(), 18000.0, 1e-9);
}

TEST(Node, DownlinkPwmRoundTrip) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.address = 1;
  q.command = phy::Command::kReadPh;
  const double fs = 96000.0;
  const auto wave = phy::pwm_encode(q.to_bits(), node.config().downlink_pwm, fs);
  const auto decoded = node.receive_downlink(wave, fs);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->command, phy::Command::kReadPh);
}

TEST(Node, UplinkWaveformMatchesBitrate) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::UplinkPacket p;
  p.node_id = 1;
  p.payload = {0xAA};
  const auto sw = phy::scheme_waveform(phy::SchemeId::kFm0, node.uplink_body(p),
                                       node.bitrate(), 96000.0);
  const std::size_t n_bits = node.uplink_bits_on_air(1);
  EXPECT_EQ(n_bits, phy::UplinkPacket::bits_on_air(1));
  const double expected = static_cast<double>(n_bits) * 96000.0 / node.bitrate();
  EXPECT_NEAR(static_cast<double>(sw.size()), expected, 96.0);
}

TEST(Node, ReadAdcReturnsRawCounts) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.command = phy::Command::kReadAdc;
  const auto resp = node.process_query(q);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->payload.size(), 2u);
  const int code = (resp->payload[0] << 8) | resp->payload[1];
  // pH-7 AFE output sits near 0.9 V on the 1.8 V / 10-bit ADC: mid-scale.
  EXPECT_GT(code, 400);
  EXPECT_LT(code, 624);
}

TEST(Node, EnergyLedgerTracksActivity) {
  const auto env = default_env();
  PabNode node(NodeConfig{}, &env);
  power_up(node);
  phy::DownlinkQuery q;
  q.command = phy::Command::kReadPh;
  (void)node.process_query(q);
  EXPECT_GT(node.ledger().total(energy::Category::kSensing), 0.0);
  EXPECT_GT(node.ledger().total(energy::Category::kBackscatter), 0.0);
  EXPECT_GT(node.ledger().harvested(), node.ledger().total_consumed());
}

TEST(Node, PayloadEncodingsRoundTrip) {
  EXPECT_NEAR(decode_ph_payload(encode_ph_payload(7.43)), 7.43, 0.005);
  EXPECT_NEAR(decode_temperature_payload(encode_temperature_payload(-1.5)),
              -1.5, 0.005);
  EXPECT_NEAR(decode_pressure_payload(encode_pressure_payload(2013.7)),
              2013.7, 0.05);
}

TEST(Node, InvalidConfigThrows) {
  const auto env = default_env();
  NodeConfig bad;
  bad.resonance_bank.clear();
  EXPECT_THROW(PabNode(bad, &env), std::invalid_argument);
  NodeConfig bad2;
  bad2.active_bitrate = 99;
  EXPECT_THROW(PabNode(bad2, &env), std::invalid_argument);
  EXPECT_THROW(PabNode(NodeConfig{}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace pab::node
