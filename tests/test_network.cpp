// Multi-node (N > 2) concurrent network simulation tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"
#include "sim/scenario.hpp"
#include "util/units.hpp"

namespace pab::core {
namespace {

struct Rig {
  SimConfig config = sim::Scenario::pool_a().medium;
  channel::Vec3 projector{1.5, 1.2, 0.65};
  channel::Vec3 hydrophone{1.5, 2.8, 0.65};
};

std::vector<channel::Vec3> ring_positions(std::size_t n) {
  std::vector<channel::Vec3> pos;
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    pos.push_back({1.5 + 0.6 * std::cos(ang), 2.0 + 0.6 * std::sin(ang), 0.65});
  }
  return pos;
}

sim::FdmaPlan plan_for(std::size_t n) {
  sim::FdmaPlan cfg;
  if (n == 1) {
    cfg.carriers_hz = {16500.0};
    return cfg;
  }
  for (std::size_t j = 0; j < n; ++j)
    cfg.carriers_hz.push_back(14500.0 + 4000.0 * static_cast<double>(j) /
                                            static_cast<double>(n - 1));
  return cfg;
}

std::vector<circuit::RectoPiezo> front_ends_for(const sim::FdmaPlan& cfg) {
  std::vector<circuit::RectoPiezo> fes;
  for (double f : cfg.carriers_hz) fes.push_back(circuit::make_recto_piezo(f));
  return fes;
}

TEST(MultiNode, TwoNodesDecodeAndImprove) {
  Rig s;
  const auto cfg = plan_for(2);
  MultiNodeSimulator sim(s.config, s.projector, s.hydrophone, ring_positions(2));
  Rng noise(s.config.seed);
  const auto r =
      sim.run(Projector::ideal(300.0), front_ends_for(cfg), cfg, noise);
  ASSERT_EQ(r.ber_after.size(), 2u);
  // Both decodable after ZF.
  EXPECT_LT(r.ber_after[0], 0.05);
  EXPECT_LT(r.ber_after[1], 0.05);
  EXPECT_GT(r.aggregate_goodput_bps, 0.0);
  EXPECT_LT(r.condition_number, 100.0);
}

TEST(MultiNode, ThreeNodesAggregateBeatsTwo) {
  // The section-8 scaling claim: a third channel adds aggregate throughput
  // while conditioning stays workable.  Averaged over seeds: individual
  // placements can drop one marginal link.
  Rig s;
  const auto cfg2 = plan_for(2);
  const auto cfg3 = plan_for(3);
  double sum2 = 0.0, sum3 = 0.0;
  for (std::uint64_t seed : {501u, 502u, 503u}) {
    MultiNodeSimulator sim2(s.config, s.projector, s.hydrophone,
                            ring_positions(2));
    MultiNodeSimulator sim3(s.config, s.projector, s.hydrophone,
                            ring_positions(3));
    Rng noise2(seed);
    Rng noise3(seed);
    sum2 += sim2.run(Projector::ideal(300.0), front_ends_for(cfg2), cfg2, noise2)
                .aggregate_goodput_bps;
    sum3 += sim3.run(Projector::ideal(300.0), front_ends_for(cfg3), cfg3, noise3)
                .aggregate_goodput_bps;
  }
  EXPECT_GT(sum3, sum2);
}

TEST(MultiNode, ConditioningDegradesWhenChannelsCrowd) {
  // Packing more channels into the same mechanical band worsens the channel
  // matrix conditioning -- the bandwidth limit of section 8.
  Rig s;
  const auto cfg2 = plan_for(2);
  const auto cfg5 = plan_for(5);
  MultiNodeSimulator sim2(s.config, s.projector, s.hydrophone, ring_positions(2));
  MultiNodeSimulator sim5(s.config, s.projector, s.hydrophone, ring_positions(5));
  Rng noise2(s.config.seed);
  Rng noise5(s.config.seed);
  const auto r2 =
      sim2.run(Projector::ideal(300.0), front_ends_for(cfg2), cfg2, noise2);
  const auto r5 =
      sim5.run(Projector::ideal(300.0), front_ends_for(cfg5), cfg5, noise5);
  EXPECT_GT(r5.condition_number, r2.condition_number);
}

TEST(MultiNode, SingleNodeIsCleanBaseline) {
  Rig s;
  const auto cfg = plan_for(1);
  MultiNodeSimulator sim(s.config, s.projector, s.hydrophone, ring_positions(1));
  Rng noise(s.config.seed);
  const auto r =
      sim.run(Projector::ideal(300.0), front_ends_for(cfg), cfg, noise);
  EXPECT_LT(r.ber_after[0], 0.01);
  // No interference to remove: before ~ after.
  EXPECT_NEAR(r.sinr_before_db[0], r.sinr_after_db[0], 3.0);
}

TEST(MultiNode, MismatchedInputsThrow) {
  Rig s;
  MultiNodeSimulator sim(s.config, s.projector, s.hydrophone, ring_positions(2));
  sim::FdmaPlan cfg = plan_for(3);  // 3 carriers for 2 nodes
  Rng noise(s.config.seed);
  EXPECT_THROW(
      (void)sim.run(Projector::ideal(300.0), front_ends_for(cfg), cfg, noise),
      std::invalid_argument);
}

TEST(MultiNode, NodeOutsideTankThrows) {
  Rig s;
  EXPECT_THROW(MultiNodeSimulator(s.config, s.projector, s.hydrophone,
                                  {{-1.0, 0.0, 0.5}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pab::core
