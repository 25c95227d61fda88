// Deployment-planning survey: where in a tank (or reef enclosure) can a
// battery-free node power up, and how long does cold start take?
//
// Sweeps node positions along both pools, computing incident pressure via the
// image-method channel, harvested DC power through the recto-piezo chain, and
// the time to charge the supercapacitor to the 2.5 V power-up threshold.
#include <cstdio>

#include "channel/tank.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"
#include "energy/harvester.hpp"
#include "energy/mcu.hpp"

int main() {
  using namespace pab;

  constexpr double kCarrier = 15000.0;
  const core::Projector projector(piezo::make_projector_transducer(), 200.0);
  const auto node = circuit::make_recto_piezo(15000.0);
  const energy::McuPowerModel mcu;
  const double idle_w = mcu.idle_power_w();
  const double p1m = projector.pressure_at_1m(kCarrier);

  std::printf("PAB deployment survey (projector at 200 V, 15 kHz)\n");
  std::printf("==================================================\n");
  std::printf("source pressure at 1 m: %.0f Pa\n", p1m);
  std::printf("node idle draw: %.0f uW; power-up threshold %g V\n", idle_w * 1e6,
              energy::Harvester::kPowerUpThresholdV);

  struct PoolScan {
    const char* name;
    channel::Tank tank;
    channel::Vec3 projector_pos;
    channel::Vec3 direction;
    double max_d;
  };
  const PoolScan scans[] = {
      {"Pool A (3x4 m)", channel::make_pool_a(), {0.2, 0.2, 0.65},
       {0.555, 0.74, 0.0}, 4.6},
      {"Pool B (1.2x10 m corridor)", channel::make_pool_b(), {0.6, 0.2, 0.5},
       {0.0, 1.0, 0.0}, 9.6},
  };

  for (const PoolScan& scan : scans) {
    std::printf("\n%s\n", scan.name);
    std::printf("dist [m]  incident [Pa]  harvest [uW]  Vrect [V]  cold start [s]\n");
    for (double d = 0.5; d <= scan.max_d; d += 0.5) {
      const channel::Vec3 rx{scan.projector_pos.x + scan.direction.x * d,
                             scan.projector_pos.y + scan.direction.y * d,
                             scan.projector_pos.z};
      if (!scan.tank.contains(rx)) break;
      const auto taps = channel::image_method_taps(scan.tank, scan.projector_pos,
                                                   rx, 2, kCarrier);
      const double p = p1m * channel::coherent_gain(taps, kCarrier);
      const double harvest = node.harvested_dc_power(kCarrier, p);
      const double vrect = node.rectified_open_voltage(kCarrier, p);
      const double t_up =
          energy::Harvester::time_to_power_up(harvest, vrect);
      const bool sustained =
          harvest >= idle_w && vrect >= energy::Harvester::kPowerUpThresholdV;
      if (t_up > 0.0 && sustained) {
        std::printf("%7.1f   %11.1f   %10.1f   %8.2f   %10.1f\n", d, p,
                    harvest * 1e6, vrect, t_up);
      } else {
        std::printf("%7.1f   %11.1f   %10.1f   %8.2f   %10s\n", d, p,
                    harvest * 1e6, vrect, "no power-up");
      }
    }
  }

  std::printf("\nNodes beyond the power-up frontier need a stronger projector\n");
  std::printf("drive, a closer placement, or (future work) battery-assisted\n");
  std::printf("backscatter as discussed in the paper's section 8.\n");
  return 0;
}
