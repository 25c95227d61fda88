// Analog front-end tests: impedance algebra, matching, rectifier, storage,
// and the recto-piezo composite.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/impedance.hpp"
#include "circuit/matching.hpp"
#include "circuit/rectifier.hpp"
#include "circuit/rectopiezo.hpp"
#include "circuit/storage.hpp"
#include "piezo/transducer.hpp"

namespace pab::circuit {
namespace {

TEST(Impedance, ParallelOfEqualHalves) {
  const cplx z = parallel(cplx(100.0, 0.0), cplx(100.0, 0.0));
  EXPECT_NEAR(z.real(), 50.0, 1e-12);
}

TEST(Impedance, ElementValues) {
  // 1 mH at 15.915 kHz -> ~100 ohm inductive.
  const cplx zl = inductor_z(1e-3, 15915.5);
  EXPECT_NEAR(zl.imag(), 100.0, 0.01);
  const cplx zc = capacitor_z(100e-9, 15915.5);
  EXPECT_NEAR(zc.imag(), -100.0, 0.01);
}

TEST(Impedance, ReflectionShortIsFull) {
  // Paper Eq. 2: short circuit reflects everything.
  const cplx zs(500.0, -300.0);
  EXPECT_NEAR(reflected_power_fraction(cplx(0.0, 0.0), zs), 1.0, 1e-12);
}

TEST(Impedance, ReflectionConjugateMatchIsZero) {
  const cplx zs(500.0, -300.0);
  EXPECT_NEAR(reflected_power_fraction(std::conj(zs), zs), 0.0, 1e-12);
}

TEST(Impedance, ReflectionBounded) {
  const cplx zs(200.0, 100.0);
  for (double r : {1.0, 10.0, 100.0, 1e4}) {
    for (double x : {-1e4, -100.0, 0.0, 100.0, 1e4}) {
      const double g = reflected_power_fraction(cplx(r, x), zs);
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
    }
  }
}

TEST(Matching, AchievesConjugateMatchAtDesignFrequency) {
  const cplx zs(240.0, -1070.0);  // typical node piezo at 15 kHz
  for (double rl : {100.0, 1000.0, 100000.0}) {
    const auto net = MatchingNetwork::design(zs, rl, 15000.0);
    const cplx zin = net.input_impedance(15000.0, cplx(rl, 0.0));
    EXPECT_NEAR(zin.real(), zs.real(), std::abs(zs) * 1e-6) << "RL=" << rl;
    EXPECT_NEAR(zin.imag(), -zs.imag(), std::abs(zs) * 1e-6) << "RL=" << rl;
  }
}

TEST(Matching, FullPowerTransferAtDesign) {
  const cplx zs(240.0, -1070.0);
  const auto net = MatchingNetwork::design(zs, 1e5, 15000.0);
  EXPECT_NEAR(net.power_transfer(15000.0, zs, cplx(1e5, 0.0)), 1.0, 1e-9);
}

TEST(Matching, TransferDegradesOffDesign) {
  const cplx zs(240.0, -1070.0);
  const auto net = MatchingNetwork::design(zs, 1e5, 15000.0);
  EXPECT_LT(net.power_transfer(18000.0, zs, cplx(1e5, 0.0)), 0.5);
}

TEST(Matching, LoadVoltageFromPower) {
  const cplx zs(100.0, 0.0);
  const auto net = MatchingNetwork::design(zs, 400.0, 10000.0);
  const double v_th = 2.0;
  // Full transfer: P = v_th^2/(8*100) = 5 mW; V_L = sqrt(2*P*400) = 2 V.
  EXPECT_NEAR(net.load_voltage(10000.0, v_th, zs, cplx(400.0, 0.0)), 2.0, 1e-6);
}

TEST(Matching, NonePassesThrough) {
  const auto net = MatchingNetwork::none();
  const cplx zl(123.0, -45.0);
  EXPECT_EQ(net.input_impedance(15000.0, zl), zl);
}

TEST(Matching, ElementRealization) {
  const auto ind = element_for_reactance(100.0, 15915.5);
  EXPECT_EQ(ind.kind, Reactance::Kind::kInductor);
  EXPECT_NEAR(ind.series_z(15915.5).imag(), 100.0, 1e-6);
  const auto cap = element_for_reactance(-100.0, 15915.5);
  EXPECT_EQ(cap.kind, Reactance::Kind::kCapacitor);
  EXPECT_NEAR(cap.series_z(15915.5).imag(), -100.0, 1e-6);
}

TEST(Rectifier, OpenCircuitDc) {
  Rectifier r(RectifierParams{3, 0.25, 1e5});
  EXPECT_NEAR(r.open_circuit_dc(1.0), 2.0 * 3.0 * 0.75, 1e-12);
  EXPECT_EQ(r.open_circuit_dc(0.2), 0.0);  // below diode drop
}

TEST(Rectifier, EfficiencyDeadZoneAndAsymptote) {
  Rectifier r(RectifierParams{3, 0.25, 1e5});
  EXPECT_EQ(r.efficiency(0.1), 0.0);
  EXPECT_GT(r.efficiency(2.0), r.efficiency(0.5));
  EXPECT_LT(r.efficiency(100.0), 1.0);
  EXPECT_GT(r.efficiency(100.0), 0.99);
}

TEST(Rectifier, MoreStagesMoreVoltage) {
  Rectifier r2(RectifierParams{2, 0.25, 1e5});
  Rectifier r4(RectifierParams{4, 0.25, 1e5});
  EXPECT_GT(r4.open_circuit_dc(1.0), r2.open_circuit_dc(1.0));
}

TEST(Supercap, ChargeDynamics) {
  Supercapacitor cap(1000e-6);
  // 1 mW for 10 s = 10 mJ -> V = sqrt(2E/C) ~ 4.47 V (no ceiling).
  for (int i = 0; i < 1000; ++i) cap.step(0.01, 1e-3, 0.0, 100.0);
  EXPECT_NEAR(cap.voltage(), std::sqrt(2.0 * 0.01 / 1000e-6), 0.01);
}

TEST(Supercap, CeilingStopsCharging) {
  Supercapacitor cap(1000e-6);
  for (int i = 0; i < 2000; ++i) cap.step(0.01, 1e-3, 0.0, 3.0);
  EXPECT_LE(cap.voltage(), 3.0 + 1e-9);
  EXPECT_NEAR(cap.voltage(), 3.0, 0.01);
}

TEST(Supercap, DischargeFloorsAtZero) {
  Supercapacitor cap(1000e-6, 1.0);
  for (int i = 0; i < 100; ++i) cap.step(1.0, 0.0, 1e-3, 5.0);
  EXPECT_GE(cap.voltage(), 0.0);
  EXPECT_NEAR(cap.voltage(), 0.0, 1e-9);
}

TEST(RectoPiezo, PeakAtMatchFrequency) {
  // The heart of Fig. 3: each recto-piezo peaks at its own match frequency.
  const auto rp15 = make_recto_piezo(15000.0);
  const auto rp18 = make_recto_piezo(18000.0);
  const double p = 60.0;
  EXPECT_GT(rp15.rectified_open_voltage(15000.0, p),
            rp15.rectified_open_voltage(18000.0, p));
  EXPECT_GT(rp18.rectified_open_voltage(18000.0, p),
            rp18.rectified_open_voltage(15000.0, p));
}

TEST(RectoPiezo, ComplementaryResponses) {
  const auto rp15 = make_recto_piezo(15000.0);
  const auto rp18 = make_recto_piezo(18000.0);
  const double p = 60.0;
  // Each device's response at the other's channel is well below its peak.
  EXPECT_LT(rp15.rectified_open_voltage(18000.0, p),
            0.25 * rp15.rectified_open_voltage(15000.0, p));
  EXPECT_LT(rp18.rectified_open_voltage(15000.0, p),
            0.25 * rp18.rectified_open_voltage(18000.0, p));
}

TEST(RectoPiezo, AbsorptiveNullAtMatch) {
  const auto rp = make_recto_piezo(15000.0);
  EXPECT_NEAR(std::abs(rp.gamma_absorptive(15000.0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(rp.gamma_reflective(15000.0)), 1.0, 1e-9);
}

TEST(RectoPiezo, ModulationDepthPeaksNearMatch) {
  const auto rp = make_recto_piezo(15000.0);
  const double at_match = rp.modulation_depth(15000.0);
  EXPECT_GT(at_match, rp.modulation_depth(11000.0));
  EXPECT_GT(at_match, rp.modulation_depth(20000.0));
}

TEST(RectoPiezo, HarvestedPowerNonNegativeAndPeaked) {
  const auto rp = make_recto_piezo(15000.0);
  double peak = 0.0, peak_f = 0.0;
  for (double f = 11000.0; f <= 21000.0; f += 100.0) {
    const double p = rp.harvested_dc_power(f, 60.0);
    EXPECT_GE(p, 0.0);
    if (p > peak) { peak = p; peak_f = f; }
  }
  EXPECT_NEAR(peak_f, 15000.0, 600.0);
}

TEST(RectoPiezo, ScatterGainConsistentWithModulationDepth) {
  const auto rp = make_recto_piezo(15000.0);
  const double f = 15500.0;
  const auto dg = rp.scatter_gain(f, true) - rp.scatter_gain(f, false);
  EXPECT_NEAR(0.5 * std::abs(dg), rp.modulation_depth(f), 1e-12);
}

TEST(RectoPiezo, EnergyConservation) {
  // Delivered electrical power can never exceed the acoustic power captured
  // by the aperture.
  const auto rp = make_recto_piezo(15000.0);
  const double p_pa = 100.0;
  const double rho_c = 1.48e6;
  const double captured =
      p_pa * p_pa / (2.0 * rho_c) * rp.transducer().aperture_area();
  for (double f = 12000.0; f <= 20000.0; f += 500.0) {
    EXPECT_LE(rp.delivered_power_w(f, p_pa), captured * (1.0 + 1e-9))
        << "f=" << f;
  }
}

}  // namespace
}  // namespace pab::circuit
