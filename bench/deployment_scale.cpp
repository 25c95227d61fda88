// Deployment scale: node-field trials from the 10-node tank regime up to
// 2000-node open-water populations.
//
// The sweep holds areal density constant (FieldSpec::area_per_node_m2), so
// per-node quantities -- neighbour degree, kept-pair count per node, zone
// occupancy -- stay flat while the region grows with the population.  Two
// execution paths run on identical fields:
//
//   culled  gain-floor spatial culling (channel::SpatialIndex, each kept
//           pair costed as the cull finds it) plus the quantized TapCache,
//           the production path;
//   brute   every O(n^2) pair with exact tap keys, the reference path.
//
// Both paths run the same zoned inventory with the same cull radius, so the
// MAC outcome (identified set, rounds, simulated time) is bit-identical and
// the wall-clock ratio isolates the channel-census cost.  The sidecar
// publishes sim.field.node_hours_per_sec (culled throughput at the largest
// population), sim.field.node_hours_per_sec_brute, and their ratio
// sim.field.speedup_vs_brute; these are wall-clock rates, so they stay out
// of stdout, which prints only the deterministic census.  A final
// interference-on pass at the largest population publishes
// sim.field.mean_slot_sinr_db and sim.field.interference_corrupted_slots,
// the cross-zone SINR corruption gauges.
//
// The brute-force reference is skipped above kBruteCap nodes to keep the
// sweep bounded.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "sim/field.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"

namespace {

using namespace pab;

constexpr std::uint64_t kPopulations[] = {10, 50, 200, 1000, 2000};
constexpr std::uint64_t kLargest = kPopulations[std::size(kPopulations) - 1];
constexpr std::uint64_t kBruteCap = 1000;

sim::FieldSpec field_spec(std::uint64_t population) {
  sim::FieldSpec spec;
  spec.layout = sim::FieldLayout::kRandom;
  spec.population = population;
  spec.seed = 21;
  return spec;
}

struct TimedRun {
  sim::FieldRunResult result;
  double wall_s = 0.0;
};

pab::Expected<TimedRun> timed_field_trial(const sim::Session& session,
                                          bool brute_force,
                                          bool interference = false) {
  sim::TrialOptions opts;
  opts.field.brute_force = brute_force;
  opts.field.interference = interference;
  opts.field.keep_log = false;
  const auto t0 = std::chrono::steady_clock::now();
  auto run = session.run_trial<sim::TrialKind::kField>(/*trial=*/0, opts);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!run.ok()) return run.error();
  TimedRun timed;
  timed.result = std::move(run).value();
  timed.wall_s = wall_s;
  return timed;
}

double node_hours_per_sec(const TimedRun& r) {
  return r.wall_s > 0.0 ? r.result.node_hours / r.wall_s : 0.0;
}

void print_series() {
  bench::print_header("Deployment scale",
                      "node-field census + zoned inventory, 10 -> 2000 nodes");

  bench::print_row({"nodes", "radius_m", "kept", "culled", "tap_eval",
                    "tap_lkup", "zones", "rounds", "found"});

  auto& registry = obs::MetricRegistry::global();
  double last_culled_rate = 0.0;
  double speedup_at = 0.0;  // largest population with both paths run
  double speedup = 0.0;

  for (const std::uint64_t population : kPopulations) {
    const sim::Scenario scenario =
        sim::Scenario::open_water(field_spec(population)).with_seed(400 + population);
    const sim::Session session(scenario);

    const auto culled = timed_field_trial(session, /*brute_force=*/false);
    if (!culled.ok()) {
      std::printf("population %llu failed: %s\n",
                  static_cast<unsigned long long>(population),
                  culled.error().message().c_str());
      continue;
    }
    const TimedRun& c = culled.value();
    last_culled_rate = node_hours_per_sec(c);

    if (population <= kBruteCap) {
      const auto brute = timed_field_trial(session, /*brute_force=*/true);
      if (brute.ok()) {
        const double brute_rate = node_hours_per_sec(brute.value());
        if (brute_rate > 0.0) {
          speedup = last_culled_rate / brute_rate;
          speedup_at = static_cast<double>(population);
          registry.gauge("sim.field.node_hours_per_sec_brute").set(brute_rate);
        }
      }
    }

    bench::print_row(
        {bench::fmt(static_cast<double>(population), 0),
         bench::fmt(c.result.cull_radius_m, 1),
         bench::fmt(static_cast<double>(c.result.kept_pairs), 0),
         bench::fmt(static_cast<double>(c.result.culled_pairs), 0),
         bench::fmt(static_cast<double>(c.result.tap_evaluations), 0),
         bench::fmt(static_cast<double>(c.result.tap_lookups), 0),
         bench::fmt(static_cast<double>(c.result.zones), 0),
         bench::fmt(static_cast<double>(c.result.zone_rounds), 0),
         bench::fmt(static_cast<double>(c.result.identified.size()), 0)});
  }

  registry.gauge("sim.field.node_hours_per_sec").set(last_culled_rate);
  registry.gauge("sim.field.speedup_vs_brute").set(speedup);
  registry.gauge("sim.field.speedup_population").set(speedup_at);

  // Cross-zone interference pass at the largest population: same field, SINR
  // model on (culled path), so the sidecar carries the corruption gauges
  // alongside the throughput numbers.
  const sim::Scenario scenario =
      sim::Scenario::open_water(field_spec(kLargest)).with_seed(400 + kLargest);
  const sim::Session session(scenario);
  const auto run =
      timed_field_trial(session, /*brute_force=*/false, /*interference=*/true);
  if (run.ok()) {
    const TimedRun& r = run.value();
    registry.gauge("sim.field.mean_slot_sinr_db")
        .set(r.result.mean_slot_sinr_db);
    registry.gauge("sim.field.interference_corrupted_slots")
        .set(static_cast<double>(r.result.interference_corrupted_slots));
    std::printf("\ninterference at %llu nodes: %llu corrupted slots, "
                "mean slot SINR %.2f dB, %llu/%llu identified\n",
                static_cast<unsigned long long>(kLargest),
                static_cast<unsigned long long>(
                    r.result.interference_corrupted_slots),
                r.result.mean_slot_sinr_db,
                static_cast<unsigned long long>(r.result.identified.size()),
                static_cast<unsigned long long>(kLargest));
  } else {
    std::printf("\ninterference pass failed: %s\n",
                run.error().message().c_str());
  }

  std::printf("\nPaper shape: deployment cost grows with kept pairs (constant\n"
              "density => linear in population), not with O(n^2) geometry.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "deployment_scale";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "deployment_scale";
  sweep.kind = pab::sim::TrialKind::kField;
  sweep.preset = "open_water_random";
  sweep.trials_per_point = 4;
  sweep.base_seed = 21;
  sweep.axes.push_back({"field.population", {50.0, 200.0}});
  sweep.field["zone_extent_m"] = 80.0;
  spec.campaign = std::move(sweep);
  spec.required_metrics = {{"channel.spatial.culled_pairs", 1},
                           {"channel.spatial.kept_pairs", 1},
                           {"channel.tapcache.hits", 1},
                           {"sim.session.field.trials", 1}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
