// Section 6.5: sensing applications (pH, temperature, pressure).
//
// Paper: a PAB node integrated with a pH miniprobe (via ADC + conditioning
// AFE) and an MS5837 pressure/temperature sensor (via I2C) reports correct
// readings -- pH of 7, room temperature, ~1 bar -- embedded in backscatter
// packets.  This bench runs the full query -> sense -> backscatter -> decode
// loop through the waveform simulator and compares against ground truth.
#include "bench_util.hpp"
#include "core/transact.hpp"
#include "mac/protocol.hpp"
#include "node/node.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace pab;

struct Result {
  const char* quantity;
  double truth;
  double measured;
  bool crc_ok;
};

Result run_query(const core::LinkSimulator& sim, node::PabNode& node,
                 const core::Projector& proj, const phy::DownlinkQuery& query,
                 Rng& noise, const char* quantity, double truth) {
  Result r{quantity, truth, 0.0, false};
  const auto packet = core::transact(sim, proj, node, query, 15000.0, noise);
  if (!packet.ok()) return r;
  const auto reading = mac::parse_response(query, packet.value());
  if (!reading) return r;
  r.measured = reading->value;
  r.crc_ok = true;
  return r;
}

void print_series() {
  bench::print_header("Section 6.5", "Sensing applications: pH, temperature, pressure");

  sense::Environment env;
  env.ph = 7.0;             // paper: "the MCU computes the correct pH (of 7)"
  env.temperature_c = 21.0; // room temperature
  env.pressure_mbar = 1013.25;  // ~1 bar

  const core::SimConfig sc = sim::Scenario::pool_a().medium;
  const core::LinkSimulator sim(sc, core::Placement{});
  const auto proj = core::Projector(piezo::make_projector_transducer(), 300.0);

  node::NodeConfig ncfg;
  ncfg.node_depth_m = 0.0;
  node::PabNode node(ncfg, &env);
  node.cold_start(15000.0, sim.incident_pressure(proj, 15000.0), 60.0);
  std::printf("node powered up: %s (capacitor %.2f V)\n\n",
              node.powered_up() ? "yes" : "NO", node.capacitor_voltage());

  Rng noise(sc.seed);
  const Result results[] = {
      run_query(sim, node, proj, mac::make_read_ph(node.config().id), noise,
                "pH", env.ph),
      run_query(sim, node, proj, mac::make_read_temperature(node.config().id),
                noise, "temperature [C]", env.temperature_c),
      run_query(sim, node, proj, mac::make_read_pressure(node.config().id),
                noise, "pressure [mbar]", env.pressure_mbar),
  };

  bench::print_row({"quantity", "truth", "measured", "error", "CRC"});
  for (const Result& r : results) {
    bench::print_row({r.quantity, bench::fmt(r.truth, 2),
                      r.crc_ok ? bench::fmt(r.measured, 2) : "-",
                      r.crc_ok ? bench::fmt(r.measured - r.truth, 3) : "-",
                      r.crc_ok ? "ok" : "FAIL"});
  }

  std::printf("\nEnergy ledger after the three transactions:\n");
  const auto& ledger = node.ledger();
  std::printf("  harvested:   %.3f mJ\n", ledger.harvested() * 1e3);
  std::printf("  decode:      %.3f mJ\n",
              ledger.total(energy::Category::kDecode) * 1e3);
  std::printf("  sensing:     %.3f mJ\n",
              ledger.total(energy::Category::kSensing) * 1e3);
  std::printf("  backscatter: %.3f mJ\n",
              ledger.total(energy::Category::kBackscatter) * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "app_sensing";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "app_sensing";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 8;
  sweep.axes.push_back({"waveform.payload_bits", {32.0, 64.0, 128.0}});
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
