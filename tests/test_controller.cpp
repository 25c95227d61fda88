// Reader end-to-end tests on the one reader path: PabNode::cold_start charges
// a node from the projector's carrier, and each exchange is one
// core::transact call, retried and accounted by a mac::PollScheduler.
#include <gtest/gtest.h>

#include "core/transact.hpp"
#include "mac/protocol.hpp"
#include "mac/scheduler.hpp"
#include "node/node.hpp"
#include "sim/scenario.hpp"

namespace pab::core {
namespace {

constexpr double kCarrierHz = 15000.0;

// Pool A, the paper's 300 V projector, and one noise stream for the reader.
struct Rig {
  sense::Environment env;
  SimConfig config = sim::Scenario::pool_a().medium;
  Projector projector{piezo::make_projector_transducer(), 300.0};
  pab::Rng noise{config.seed};
  Rig() {
    env.ph = 7.5;
    env.temperature_c = 19.0;
    env.pressure_mbar = 1013.25;
  }

  [[nodiscard]] LinkSimulator link_to(channel::Vec3 position) const {
    Placement placement;
    placement.node = position;
    return LinkSimulator(config, placement);
  }

  // Charge `node` from the carrier at its link's incident pressure.
  void power_up(node::PabNode& node, const LinkSimulator& link) const {
    node.cold_start(kCarrierHz, link.incident_pressure(projector, kCarrierHz),
                    120.0);
  }

  pab::Expected<phy::UplinkPacket> exchange(const LinkSimulator& link,
                                            node::PabNode& node,
                                            const phy::DownlinkQuery& query) {
    return transact(link, projector, node, query, kCarrierHz, noise);
  }

  // One query through `scheduler`, its airtime sized from the node's reply
  // on air, and the reply parsed into a reading.
  pab::Expected<mac::SensorReading> read(mac::PollScheduler& scheduler,
                                         const LinkSimulator& link,
                                         node::PabNode& node,
                                         const phy::DownlinkQuery& query) {
    const auto exchange_with_node = [&](const phy::DownlinkQuery& q) {
      return exchange(link, node, q);
    };
    const auto packet = scheduler.transact(
        query, exchange_with_node,
        node.uplink_bits_on_air(mac::response_payload_size(query.command)),
        node.bitrate());
    if (!packet.ok()) return packet.error();
    const auto reading = mac::parse_response(query, packet.value());
    if (!reading) {
      return pab::Error{pab::ErrorCode::kDecodeFailure,
                        "payload size mismatch"};
    }
    return *reading;
  }
};

node::NodeConfig node_config(std::uint8_t id, double depth_m = 0.5) {
  node::NodeConfig cfg;
  cfg.id = id;
  cfg.node_depth_m = depth_m;
  return cfg;
}

TEST(Controller, DeployPowerUpDiscover) {
  Rig rig;
  const LinkSimulator link1 = rig.link_to({1.4, 2.0, 0.65});
  const LinkSimulator link2 = rig.link_to({1.8, 2.3, 0.65});
  node::PabNode n1(node_config(1), &rig.env);
  node::PabNode n2(node_config(2), &rig.env);
  rig.power_up(n1, link1);
  rig.power_up(n2, link2);
  ASSERT_TRUE(n1.powered_up());
  ASSERT_TRUE(n2.powered_up());

  // Each node answers a ping with its own id.
  const auto pong1 = rig.exchange(link1, n1, mac::make_ping(1));
  ASSERT_TRUE(pong1.ok()) << pong1.error().message();
  EXPECT_EQ(pong1.value().node_id, 1);
  const auto pong2 = rig.exchange(link2, n2, mac::make_ping(2));
  ASSERT_TRUE(pong2.ok()) << pong2.error().message();
  EXPECT_EQ(pong2.value().node_id, 2);
}

TEST(Controller, ReadSensorsEndToEnd) {
  Rig rig;
  const LinkSimulator link = rig.link_to({1.5, 2.1, 0.65});
  node::PabNode node(node_config(3, 0.0), &rig.env);
  rig.power_up(node, link);
  ASSERT_TRUE(node.powered_up());

  mac::PollScheduler scheduler;
  const auto ph = rig.read(scheduler, link, node, mac::make_read_ph(3));
  ASSERT_TRUE(ph.ok()) << ph.error().message();
  EXPECT_NEAR(ph.value().value, 7.5, 0.15);

  const auto temp =
      rig.read(scheduler, link, node, mac::make_read_temperature(3));
  ASSERT_TRUE(temp.ok());
  EXPECT_NEAR(temp.value().value, 19.0, 0.2);

  const auto pressure =
      rig.read(scheduler, link, node, mac::make_read_pressure(3));
  ASSERT_TRUE(pressure.ok());
  EXPECT_NEAR(pressure.value().value, 1013.25, 3.0);

  EXPECT_GE(scheduler.stats().successes, 3u);
}

TEST(Controller, UnpoweredNodeDoesNotAnswer) {
  Rig rig;
  const LinkSimulator link = rig.link_to({1.5, 2.1, 0.65});
  node::PabNode node(node_config(4), &rig.env);
  // No cold start: the node never charged.
  EXPECT_FALSE(node.powered_up());
  EXPECT_FALSE(rig.exchange(link, node, mac::make_ping(4)).ok());
  mac::PollScheduler scheduler;
  EXPECT_FALSE(rig.read(scheduler, link, node, mac::make_ping(4)).ok());
  EXPECT_EQ(scheduler.stats().successes, 0u);
}

// The only test of transact's FEC recovery: after the over-the-air switch,
// every reply body is Hamming(7,4)-coded and interleaved.
TEST(Controller, RobustModeTransactionsKeepWorking) {
  Rig rig;
  const LinkSimulator link = rig.link_to({1.5, 2.1, 0.65});
  node::PabNode node(node_config(6, 0.0), &rig.env);
  rig.power_up(node, link);
  ASSERT_TRUE(node.powered_up());

  // Switch the node to robust mode over the air.
  mac::PollScheduler scheduler;
  const auto ack =
      rig.read(scheduler, link, node, mac::make_set_robust_mode(6, true));
  ASSERT_TRUE(ack.ok()) << ack.error().message();
  EXPECT_EQ(ack.value().value, 1.0);
  ASSERT_TRUE(node.robust_uplink());

  // Transactions continue to decode through the FEC-protected uplink.
  const auto ph = rig.read(scheduler, link, node, mac::make_read_ph(6));
  ASSERT_TRUE(ph.ok()) << ph.error().message();
  EXPECT_NEAR(ph.value().value, 7.5, 0.15);
  const auto temp =
      rig.read(scheduler, link, node, mac::make_read_temperature(6));
  ASSERT_TRUE(temp.ok());
  EXPECT_NEAR(temp.value().value, 19.0, 0.2);
}

// A robust reply is charged its coded airtime: the scheduler's uplink is
// sized by PabNode::uplink_bits_on_air, not by the uncoded packet.
TEST(Controller, RobustReadChargesCodedAirtime) {
  const auto charged_read_s = [](bool robust) {
    Rig rig;
    const LinkSimulator link = rig.link_to({1.5, 2.1, 0.65});
    node::NodeConfig cfg = node_config(6, 0.0);
    cfg.robust_uplink = robust;
    node::PabNode node(cfg, &rig.env);
    rig.power_up(node, link);
    EXPECT_TRUE(node.powered_up());
    mac::PollScheduler scheduler;
    EXPECT_TRUE(rig.read(scheduler, link, node, mac::make_read_ph(6)).ok());
    EXPECT_EQ(scheduler.stats().attempts, 1u);
    return scheduler.stats().elapsed_s;
  };
  // 0.2 s query + 0.02 s turnaround + the reply at 1 kbps: 60 bits plain,
  // 96 bits robust (the 48-bit body Hamming(7,4)-coded to 84 bits).
  EXPECT_NEAR(charged_read_s(false), 0.280, 1e-9);
  EXPECT_NEAR(charged_read_s(true), 0.316, 1e-9);
}

}  // namespace
}  // namespace pab::core
