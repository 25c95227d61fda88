// ReaderController integration tests: deployment, power-up, discovery,
// adaptive transactions.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "sim/scenario.hpp"

namespace pab::core {
namespace {

struct Rig {
  sense::Environment env;
  SimConfig config = sim::Scenario::pool_a().medium;
  Placement base;
  Rig() {
    env.ph = 7.5;
    env.temperature_c = 19.0;
    env.pressure_mbar = 1013.25;
  }
  [[nodiscard]] ReaderController make_reader(double drive_v = 300.0) const {
    return ReaderController(
        config, base, Projector(piezo::make_projector_transducer(), drive_v));
  }
};

TEST(Controller, DeployPowerUpDiscover) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig n1;
  n1.id = 1;
  node::NodeConfig n2;
  n2.id = 2;
  reader.deploy_node(n1, &rig.env, {1.4, 2.0, 0.65});
  reader.deploy_node(n2, &rig.env, {1.8, 2.3, 0.65});

  EXPECT_EQ(reader.power_up_all(120.0), 2u);
  EXPECT_TRUE(reader.node_powered(1));
  EXPECT_TRUE(reader.node_powered(2));

  const auto found = reader.discover(5);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(found[1], 2);
}

TEST(Controller, ReadSensorsEndToEnd) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig cfg;
  cfg.id = 3;
  cfg.node_depth_m = 0.0;
  reader.deploy_node(cfg, &rig.env, {1.5, 2.1, 0.65});
  ASSERT_EQ(reader.power_up_all(120.0), 1u);

  const auto ph = reader.read(3, phy::Command::kReadPh);
  ASSERT_TRUE(ph.ok()) << ph.error().message();
  EXPECT_NEAR(ph.value().value, 7.5, 0.15);

  const auto temp = reader.read(3, phy::Command::kReadTemperature);
  ASSERT_TRUE(temp.ok());
  EXPECT_NEAR(temp.value().value, 19.0, 0.2);

  const auto pressure = reader.read(3, phy::Command::kReadPressure);
  ASSERT_TRUE(pressure.ok());
  EXPECT_NEAR(pressure.value().value, 1013.25, 3.0);

  EXPECT_GE(reader.stats().successes, 3u);
}

TEST(Controller, UnknownAddressFails) {
  Rig rig;
  auto reader = rig.make_reader();
  const auto r = reader.read(9, phy::Command::kPing);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), pab::ErrorCode::kInvalidArgument);
}

TEST(Controller, UnpoweredNodeDoesNotAnswer) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig cfg;
  cfg.id = 4;
  reader.deploy_node(cfg, &rig.env, {1.5, 2.1, 0.65});
  // No power_up_all: the node never charged.
  EXPECT_FALSE(reader.node_powered(4));
  const auto r = reader.read(4, phy::Command::kPing);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(reader.discover(5).empty());
}

TEST(Controller, DuplicateAddressThrows) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig cfg;
  cfg.id = 1;
  reader.deploy_node(cfg, &rig.env, {1.4, 2.0, 0.65});
  EXPECT_THROW(reader.deploy_node(cfg, &rig.env, {1.8, 2.3, 0.65}),
               std::invalid_argument);
}

TEST(Controller, RobustModeTransactionsKeepWorking) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig cfg;
  cfg.id = 6;
  cfg.node_depth_m = 0.0;
  reader.deploy_node(cfg, &rig.env, {1.5, 2.1, 0.65});
  ASSERT_EQ(reader.power_up_all(120.0), 1u);

  // Switch the node to robust mode over the air.
  const auto ack = reader.configure(6, phy::Command::kSetRobustMode, 1);
  ASSERT_TRUE(ack.ok()) << ack.error().message();
  EXPECT_EQ(ack.value().value, 1.0);
  ASSERT_TRUE(reader.nodes().at(6).node->robust_uplink());

  // Transactions continue to decode through the FEC-protected uplink.
  const auto ph = reader.read(6, phy::Command::kReadPh);
  ASSERT_TRUE(ph.ok()) << ph.error().message();
  EXPECT_NEAR(ph.value().value, 7.5, 0.15);
  const auto temp = reader.read(6, phy::Command::kReadTemperature);
  ASSERT_TRUE(temp.ok());
  EXPECT_NEAR(temp.value().value, 19.0, 0.2);
}

// Regression: read() sized the scheduler's uplink airtime from the uncoded
// packet, so a robust reply was charged as if it were plain.
TEST(Controller, RobustReadChargesCodedAirtime) {
  Rig rig;
  const auto charged_read_s = [&](bool robust) {
    auto reader = rig.make_reader();
    node::NodeConfig cfg;
    cfg.id = 6;
    cfg.node_depth_m = 0.0;
    cfg.robust_uplink = robust;
    reader.deploy_node(cfg, &rig.env, {1.5, 2.1, 0.65});
    EXPECT_EQ(reader.power_up_all(120.0), 1u);
    EXPECT_TRUE(reader.read(6, phy::Command::kReadPh).ok());
    EXPECT_EQ(reader.stats().attempts, 1u);
    return reader.stats().elapsed_s;
  };
  // 0.2 s query + 0.02 s turnaround + the reply at 1 kbps: 60 bits plain,
  // 96 bits robust (the 48-bit body Hamming(7,4)-coded to 84 bits).
  EXPECT_NEAR(charged_read_s(false), 0.280, 1e-9);
  EXPECT_NEAR(charged_read_s(true), 0.316, 1e-9);
}

TEST(Controller, RateAdaptationClimbsOnCleanLink) {
  Rig rig;
  auto reader = rig.make_reader();
  node::NodeConfig cfg;
  cfg.id = 5;
  cfg.active_bitrate = 0;  // start at 100 bps
  reader.deploy_node(cfg, &rig.env, {1.5, 2.1, 0.65});
  ASSERT_EQ(reader.power_up_all(120.0), 1u);

  const double initial = reader.node_bitrate(5);
  for (int i = 0; i < 12; ++i) (void)reader.read(5, phy::Command::kPing);
  // Clean short link: the controller should have pushed at least one upshift
  // down to the node via kSetBitrate.
  EXPECT_GT(reader.node_bitrate(5), initial);
}

}  // namespace
}  // namespace pab::core
