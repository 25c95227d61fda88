// Ocean-condition monitoring: a projector polls a battery-free PAB sensor
// node for acidity, temperature, and pressure over repeated rounds -- the
// long-term climate-observation application the paper motivates.
//
// Exercises the full stack: cold-start energy harvesting, PWM downlink
// queries, on-node sensing (pH probe via ADC, MS5837 via I2C), FM0
// backscatter uplink, software receiver, CRC-checked transport, retransmission
// via the MAC scheduler, and the node's energy ledger.  Each exchange is one
// core::transact call; the charge is one PabNode::cold_start.
#include <cstdio>

#include "core/transact.hpp"
#include "energy/harvester.hpp"
#include "mac/protocol.hpp"
#include "mac/scheduler.hpp"
#include "node/node.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace pab;

  // A slowly changing ocean environment.
  sense::Environment env;
  env.ph = 8.05;            // ocean surface water
  env.temperature_c = 16.0;
  env.pressure_mbar = 1013.25;

  core::SimConfig config = sim::Scenario::pool_a().medium;
  const core::LinkSimulator sim(config, core::Placement{});
  const core::Projector projector(piezo::make_projector_transducer(), 300.0);

  node::NodeConfig ncfg;
  ncfg.id = 3;
  ncfg.node_depth_m = 0.65;
  node::PabNode node(ncfg, &env);

  std::printf("Ocean monitoring with a battery-free PAB node\n");
  std::printf("=============================================\n");

  // Cold start: harvest from the downlink carrier until powered.
  const double t = node.cold_start(
      15000.0, sim.incident_pressure(projector, 15000.0), 120.0);
  std::printf("cold start: %.1f s to reach %.2f V (threshold %g V)\n\n", t,
              node.capacitor_voltage(), energy::Harvester::kPowerUpThresholdV);
  if (!node.powered_up()) {
    std::printf("node failed to power up -- projector too weak or too far\n");
    return 1;
  }

  // One waveform-level transaction, used by the scheduler as its link.
  Rng noise(config.seed);
  const auto link = [&](const phy::DownlinkQuery& query) {
    return core::transact(sim, projector, node, query, 15000.0, noise);
  };

  mac::PollScheduler scheduler;
  const phy::DownlinkQuery queries[] = {
      mac::make_read_ph(ncfg.id),
      mac::make_read_temperature(ncfg.id),
      mac::make_read_pressure(ncfg.id),
  };

  std::printf("round  pH      temp [C]  pressure [mbar]\n");
  for (int round = 1; round <= 5; ++round) {
    double values[3] = {0, 0, 0};
    for (int q = 0; q < 3; ++q) {
      const std::size_t bits =
          node.uplink_bits_on_air(mac::response_payload_size(queries[q].command));
      const auto result =
          scheduler.transact(queries[q], link, bits, node.bitrate());
      if (result.ok()) {
        const auto reading = mac::parse_response(queries[q], result.value());
        if (reading) values[q] = reading->value;
      }
    }
    std::printf("%4d   %.2f    %.2f     %.1f\n", round, values[0], values[1],
                values[2]);
    // The ocean drifts slightly between rounds.
    env.temperature_c += 0.05;
    env.ph -= 0.01;
  }

  const auto& stats = scheduler.stats();
  std::printf("\nMAC statistics: %zu queries, %zu delivered (%.0f%%), "
              "%zu retries, goodput %.1f bps\n",
              stats.attempts, stats.successes, 100.0 * stats.success_rate(),
              stats.retries, stats.goodput_bps());

  const auto& ledger = node.ledger();
  std::printf("\nNode energy ledger:\n");
  std::printf("  harvested    %8.3f mJ\n", ledger.harvested() * 1e3);
  std::printf("  decode       %8.3f mJ\n",
              ledger.total(energy::Category::kDecode) * 1e3);
  std::printf("  sensing      %8.3f mJ\n",
              ledger.total(energy::Category::kSensing) * 1e3);
  std::printf("  backscatter  %8.3f mJ\n",
              ledger.total(energy::Category::kBackscatter) * 1e3);
  std::printf("  -> everything powered by harvested acoustic energy\n");
  return 0;
}
