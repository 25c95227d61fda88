// Cylinder design-synthesis tests.
#include <gtest/gtest.h>

#include "piezo/design.hpp"

namespace pab {
namespace {

TEST(CylinderDesign, PaperGeometryResonatesAt17kHz) {
  piezo::CylinderGeometry steminc;
  steminc.mean_radius_m = 0.02525;  // Steminc SMC5447T40111 midline
  steminc.length_m = 0.04;
  steminc.wall_thickness_m = 0.00355;
  EXPECT_NEAR(piezo::in_air_resonance_hz(steminc), 17000.0, 150.0);
}

TEST(CylinderDesign, WaterLoadingLowersResonance) {
  const auto g = piezo::design_cylinder_for(17000.0);
  const auto d = piezo::water_loaded_design(g);
  EXPECT_LT(d.resonance_hz, 17000.0);
  EXPECT_GT(d.resonance_hz, 15000.0);  // the paper operates at 15-16.5 kHz
  EXPECT_NEAR(d.bvd.series_resonance_hz(), d.resonance_hz, 1.0);
}

TEST(CylinderDesign, DesignForFrequencyRoundTrips) {
  for (double f : {500.0, 5000.0, 17000.0, 40000.0}) {
    const auto g = piezo::design_cylinder_for(f);
    EXPECT_NEAR(piezo::in_air_resonance_hz(g), f, f * 1e-9);
  }
}

TEST(CylinderDesign, SizeInverselyProportionalToFrequency) {
  // Paper section 4.1 / footnote 8: dimensions ~ 1/f, volume ~ 1/f^3.
  const auto g17 = piezo::design_cylinder_for(17000.0);
  const auto g500 = piezo::design_cylinder_for(500.0);
  EXPECT_NEAR(g500.mean_radius_m / g17.mean_radius_m, 34.0, 0.01);
  EXPECT_NEAR(g500.volume_m3() / g17.volume_m3(), 34.0 * 34.0 * 34.0, 50.0);
}

TEST(CylinderDesign, GeneratedTransducerIsUsable) {
  const auto g = piezo::design_cylinder_for(17000.0);
  const auto xdcr = piezo::make_transducer_from_geometry(g);
  // Behaves like the hand-tuned factory: sensible sensitivity and TVR peak
  // near the loaded resonance.
  const double f0 = xdcr.resonance_hz();
  EXPECT_GT(xdcr.tvr_db(f0), xdcr.tvr_db(f0 * 0.7));
  EXPECT_GT(xdcr.tvr_db(f0), xdcr.tvr_db(f0 * 1.4));
  const double ocv = xdcr.ocv_sensitivity_db(f0);
  EXPECT_GT(ocv, -210.0);
  EXPECT_LT(ocv, -165.0);
}

TEST(CylinderDesign, StaticCapacitanceScalesWithArea) {
  const auto small = piezo::water_loaded_design(piezo::design_cylinder_for(34000.0));
  const auto large = piezo::water_loaded_design(piezo::design_cylinder_for(17000.0));
  // Area ~ 1/f^2, thickness ~ 1/f -> C0 ~ 1/f.
  EXPECT_NEAR(large.bvd.c0 / small.bvd.c0, 2.0, 0.02);
}

}  // namespace
}  // namespace pab
