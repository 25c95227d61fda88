// Figure 11: Node power consumption vs backscatter bitrate.
//
// Paper: 124 uW in idle (ready to receive/decode a downlink signal) rising to
// ~500 uW while backscattering, roughly flat across 100 bps - 3 kbps, within
// 7% of the component datasheets.
#include <chrono>

#include "bench_util.hpp"
#include "energy/harvester.hpp"
#include "energy/ledger.hpp"
#include "energy/mcu.hpp"
#include "node/lifecycle.hpp"
#include "sim/timeline.hpp"

namespace {

using namespace pab;

void print_series() {
  bench::print_header("Figure 11", "Power consumption vs backscatter bitrate");
  const energy::McuPowerModel mcu;

  bench::print_row({"mode", "power [uW]"});
  bench::print_row({"idle", bench::fmt(mcu.idle_power_w() * 1e6, 1)});
  for (double rate : {100.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0}) {
    bench::print_row({bench::fmt(rate, 0) + " bps",
                      bench::fmt(mcu.backscatter_power_w(rate) * 1e6, 1)});
  }

  // Cross-check against datasheet numbers, as the paper does (section 6.4).
  const auto& p = mcu.params();
  const double datasheet_active =
      p.supply_v * (p.active_current_a + p.ldo_quiescent_a);
  const double measured = mcu.backscatter_power_w(1000.0);
  std::printf("\nidle:          %.0f uW (paper: 124 uW)\n",
              mcu.idle_power_w() * 1e6);
  std::printf("backscatter:   %.0f-%.0f uW (paper: ~500 uW)\n",
              mcu.backscatter_power_w(100.0) * 1e6,
              mcu.backscatter_power_w(3000.0) * 1e6);
  std::printf("vs datasheet:  %.1f %% above MCU+LDO active draw "
              "(paper: within 7%%)\n",
              100.0 * (measured - datasheet_active) / datasheet_active);
  std::printf("Energy per backscattered bit at 1 kbps: %.0f nJ\n",
              mcu.backscatter_power_w(1000.0) / 1000.0 * 1e9);

  // Energy accounting for one representative duty cycle (1 s idle listening,
  // a 1000-bit backscatter frame at 1 kbps), published to the metrics
  // sidecar through the ledger's category gauges.
  energy::EnergyLedger ledger;
  ledger.add(energy::Category::kIdle, mcu.idle_power_w() * 1.0);
  ledger.add(energy::Category::kBackscatter,
             mcu.backscatter_power_w(1000.0) * 1.0);
  ledger.export_to(obs::MetricRegistry::global());
  std::printf("Duty-cycle ledger: %.0f uJ consumed (%.0f uJ idle, %.0f uJ "
              "backscatter)\n",
              ledger.total_consumed() * 1e6,
              ledger.total(energy::Category::kIdle) * 1e6,
              ledger.total(energy::Category::kBackscatter) * 1e6);

  // The same idle draw as an event-driven trajectory: a node cold-starting
  // under 1 mW harvest on a sim::Timeline, ticking its harvester at event
  // timestamps.  Average idle power over the powered interval must land on
  // the figure's 124 uW row; the timeline gauges go into this bench's
  // sidecar (sim.timeline.*), with the wall-time event rate alongside.
  sim::Timeline tl;
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = mcu.idle_power_w();
  lc.harvest_power_w = [](double) { return 1e-3; };
  node::NodeLifecycle cold_start(
      1, energy::Harvester{circuit::Supercapacitor(1000e-6)}, lc);
  cold_start.attach(tl, 10.0);
  const auto t0 = std::chrono::steady_clock::now();
  tl.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  auto& global = obs::MetricRegistry::global();
  tl.export_to(global);
  global.gauge("sim.timeline.events_per_sec")
      .set(wall_s > 0.0
               ? static_cast<double>(tl.events_processed()) / wall_s
               : 0.0);
  const auto& node_ledger = cold_start.harvester().ledger();
  const double powered_s =
      10.0 - energy::Harvester::time_to_power_up(1e-3, 5.0);
  std::printf("Timeline cold start: power-up after %.2f s, then %.1f uW "
              "average idle draw over %zu events\n",
              energy::Harvester::time_to_power_up(1e-3, 5.0),
              node_ledger.total(energy::Category::kIdle) / powered_s * 1e6,
              tl.events_processed());
}

void bm_power_model(benchmark::State& state) {
  const energy::McuPowerModel mcu;
  for (auto _ : state) {
    double acc = 0.0;
    for (double r = 100.0; r <= 3000.0; r += 10.0)
      acc += mcu.backscatter_power_w(r);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(bm_power_model);

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fig11_power";
  spec.description = "Power consumption vs backscatter bitrate";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fig11_power";
  sweep.kind = pab::sim::TrialKind::kTimeline;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 8;
  sweep.timeline["horizon_s"] = 20.0;
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
