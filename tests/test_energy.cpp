// Energy subsystem tests: MCU power model, ledger, harvester dynamics.
#include <gtest/gtest.h>

#include "energy/harvester.hpp"
#include "energy/ledger.hpp"
#include "energy/mcu.hpp"
#include "energy/planner.hpp"
#include "obs/metrics.hpp"

namespace pab::energy {
namespace {

TEST(Mcu, IdlePowerMatchesPaper) {
  // The paper measures 124 uW in idle (section 6.4).
  McuPowerModel mcu;
  EXPECT_NEAR(mcu.idle_power_w(), 124e-6, 2e-6);
}

TEST(Mcu, BackscatterPowerMatchesPaper) {
  // ~500 uW while backscattering, roughly flat across bitrates (Fig. 11).
  McuPowerModel mcu;
  for (double rate : {100.0, 1000.0, 3000.0}) {
    const double p = mcu.backscatter_power_w(rate);
    EXPECT_GT(p, 450e-6) << rate;
    EXPECT_LT(p, 600e-6) << rate;
  }
}

TEST(Mcu, BackscatterPowerRisesSlightlyWithBitrate) {
  McuPowerModel mcu;
  EXPECT_GT(mcu.backscatter_power_w(3000.0), mcu.backscatter_power_w(100.0));
  // But the switching term stays small relative to the MCU core.
  EXPECT_LT(mcu.backscatter_power_w(3000.0) - mcu.backscatter_power_w(100.0),
            50e-6);
}

TEST(Mcu, StateOrdering) {
  McuPowerModel mcu;
  EXPECT_EQ(mcu.state_power_w(McuState::kOff), 0.0);
  EXPECT_LT(mcu.state_power_w(McuState::kLpm3), mcu.state_power_w(McuState::kIdle));
  EXPECT_LT(mcu.state_power_w(McuState::kIdle), mcu.state_power_w(McuState::kActive));
}

TEST(Mcu, DecodeEnergyScalesWithBits) {
  McuPowerModel mcu;
  const double e10 = mcu.decode_energy_j(10, 5e-3);
  const double e20 = mcu.decode_energy_j(20, 5e-3);
  EXPECT_NEAR(e20, 2.0 * e10, 1e-12);
  EXPECT_GT(e10, 0.0);
}

TEST(Ledger, AccumulatesByCategory) {
  EnergyLedger ledger;
  ledger.add(Category::kHarvested, 1e-3);
  ledger.add(Category::kBackscatter, 2e-4);
  ledger.add(Category::kBackscatter, 3e-4);
  EXPECT_NEAR(ledger.total(Category::kBackscatter), 5e-4, 1e-15);
  EXPECT_NEAR(ledger.harvested(), 1e-3, 1e-15);
  EXPECT_NEAR(ledger.total_consumed(), 5e-4, 1e-15);
}

// Regression guard for total_consumed(): it must be the sum of exactly the
// five consumption categories and exclude harvested energy, independent of
// the enum's numeric layout (the implementation now iterates the categories
// by name, with a static_assert pinning the layout).
TEST(Ledger, TotalConsumedCoversEveryConsumptionCategory) {
  EnergyLedger ledger;
  ledger.add(Category::kHarvested, 100.0);  // must never leak into "consumed"
  ledger.add(Category::kIdle, 1.0);
  ledger.add(Category::kDecode, 2.0);
  ledger.add(Category::kBackscatter, 4.0);
  ledger.add(Category::kSensing, 8.0);
  ledger.add(Category::kLeakage, 16.0);
  EXPECT_NEAR(ledger.total_consumed(), 31.0, 1e-12);
  EXPECT_NEAR(ledger.harvested(), 100.0, 1e-12);
}

TEST(Ledger, ExportsGaugesToRegistry) {
  EnergyLedger ledger;
  ledger.add(Category::kHarvested, 2e-3);
  ledger.add(Category::kBackscatter, 5e-4);
  obs::MetricRegistry reg;
  ledger.export_to(reg, "node0.energy");
  EXPECT_DOUBLE_EQ(reg.gauge("node0.energy.harvested_joules").value(), 2e-3);
  EXPECT_DOUBLE_EQ(reg.gauge("node0.energy.backscatter_joules").value(), 5e-4);
  EXPECT_DOUBLE_EQ(reg.gauge("node0.energy.total_consumed_joules").value(),
                   5e-4);
  EXPECT_DOUBLE_EQ(reg.gauge("node0.energy.idle_joules").value(), 0.0);
}

TEST(Ledger, AveragePower) {
  EnergyLedger ledger;
  ledger.add(Category::kIdle, 124e-6 * 10.0);
  EXPECT_NEAR(ledger.average_power_w(Category::kIdle, 10.0), 124e-6, 1e-12);
}

TEST(Ledger, RejectsNegativeEnergy) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.add(Category::kIdle, -1.0), std::invalid_argument);
}

// Regression: average_power_w(c, 0.0) used to throw (std::invalid_argument
// via require) the first time a caller asked for power before any time had
// elapsed -- e.g. a dashboard polling a node that had not completed its first
// tick.  Zero energy over zero time is a well-defined "no draw yet": 0 W.
TEST(Ledger, AveragePowerZeroElapsedIsZeroNotAnError) {
  EnergyLedger ledger;
  EXPECT_NO_THROW((void)ledger.average_power_w(Category::kIdle, 0.0));
  EXPECT_EQ(ledger.average_power_w(Category::kIdle, 0.0), 0.0);
  EXPECT_EQ(ledger.average_power_w(Category::kIdle, -1.0), 0.0);
  // Energy booked but zero elapsed still reports 0 W rather than inf.
  ledger.add(Category::kIdle, 1e-3);
  EXPECT_EQ(ledger.average_power_w(Category::kIdle, 0.0), 0.0);
  // And the normal path is unchanged.
  EXPECT_NEAR(ledger.average_power_w(Category::kIdle, 2.0), 5e-4, 1e-15);
}

TEST(Harvester, StepAtMatchesStepAndReportsTransitions) {
  // step() reports the power-state transition and exactly the joules it
  // booked into the ledger, so a caller can mirror them into an event log.
  Harvester h{circuit::Supercapacitor(1000e-6)};
  PowerEvent last = PowerEvent::kNone;
  int power_ups = 0;
  double harvested = 0.0, consumed = 0.0;
  for (int i = 0; i < 500; ++i) {
    const HarvestStep step = h.step(0.01, 1e-3, 200e-6, 5.0);
    if (step.event == PowerEvent::kPowerUp) {
      ++power_ups;
      last = step.event;
    }
    EXPECT_GE(step.harvested_j, 0.0);
    EXPECT_GE(step.consumed_j, 0.0);
    harvested += step.harvested_j;
    consumed += step.consumed_j;
  }
  EXPECT_EQ(power_ups, 1);
  EXPECT_EQ(last, PowerEvent::kPowerUp);
  EXPECT_TRUE(h.powered_up());
  // The returned joules sum, in the same order, to the ledger's totals.
  EXPECT_EQ(harvested, h.ledger().harvested());
  EXPECT_EQ(consumed, h.ledger().total(Category::kIdle));
  EXPECT_GT(consumed, 0.0);  // the idle load draws once powered
}

// recharge_time_s returns Expected<double> (the old -1.0 sentinel was easy
// to feed into downstream arithmetic unnoticed): a node that harvests
// nothing can never bank a transaction, and that is an error, not a number.
TEST(Planner, RechargeTimeIsExpected) {
  EnergyPlanner planner;
  const TransactionCost cost;
  const auto ok = planner.recharge_time_s(100e-6, cost);
  ASSERT_TRUE(ok.ok());
  EXPECT_NEAR(ok.value(), planner.transaction_energy_j(cost) / 100e-6, 1e-12);
  EXPECT_GT(ok.value(), 0.0);
}

TEST(Planner, RechargeTimeErrorsWithoutHarvest) {
  EnergyPlanner planner;
  const TransactionCost cost;
  const auto zero = planner.recharge_time_s(0.0, cost);
  EXPECT_FALSE(zero.ok());
  EXPECT_EQ(zero.code(), pab::ErrorCode::kInsufficientPower);
  const auto negative = planner.recharge_time_s(-1e-6, cost);
  EXPECT_FALSE(negative.ok());
  EXPECT_EQ(negative.code(), pab::ErrorCode::kInsufficientPower);
}

TEST(Harvester, PowersUpAtThreshold) {
  Harvester h{circuit::Supercapacitor(1000e-6)};
  EXPECT_FALSE(h.powered_up());
  // 1 mW charging against a 5 V ceiling: E(2.5V) = 3.125 mJ -> ~3.1 s.
  double t = 0.0;
  while (!h.powered_up() && t < 10.0) {
    h.step(0.01, 1e-3, 0.0, 5.0);
    t += 0.01;
  }
  EXPECT_TRUE(h.powered_up());
  EXPECT_NEAR(t, 3.13, 0.1);
}

TEST(Harvester, NeverPowersUpBelowCeiling) {
  // Rectifier ceiling below 2.5 V: node can never boot (Fig. 3's dashed
  // "minimum voltage to power up" line).
  Harvester h{circuit::Supercapacitor(1000e-6)};
  for (int i = 0; i < 10000; ++i) h.step(0.01, 1e-3, 0.0, 2.0);
  EXPECT_FALSE(h.powered_up());
  EXPECT_LE(h.capacitor_voltage(), 2.0 + 1e-9);
}

TEST(Harvester, BrownOutOnLoad) {
  Harvester h{circuit::Supercapacitor(100e-6)};
  for (int i = 0; i < 1000 && !h.powered_up(); ++i) h.step(0.01, 1e-3, 0.0, 5.0);
  ASSERT_TRUE(h.powered_up());
  // Heavy load with no harvest: drains below brown-out.
  for (int i = 0; i < 2000; ++i) h.step(0.01, 0.0, 5e-3, 5.0);
  EXPECT_FALSE(h.powered_up());
}

TEST(Harvester, LedgerConservation) {
  Harvester h{circuit::Supercapacitor(1000e-6)};
  for (int i = 0; i < 500; ++i) h.step(0.01, 2e-3, 0.0, 5.0);
  // Everything harvested is either consumed or stored (here: stored).
  const double stored = 0.5 * 1000e-6 * h.capacitor_voltage() * h.capacitor_voltage();
  EXPECT_LE(stored, h.ledger().harvested() + 1e-12);
}

TEST(Harvester, TimeToPowerUpFormula) {
  EXPECT_NEAR(Harvester::time_to_power_up(1e-3, 5.0), 3.125, 1e-9);
  EXPECT_LT(Harvester::time_to_power_up(1e-3, 2.0), 0.0);  // unreachable
  EXPECT_LT(Harvester::time_to_power_up(0.0, 5.0), 0.0);
}

}  // namespace
}  // namespace pab::energy
