// Figure 10: SINR of concurrent backscatter transmissions before and after
// MIMO projection, across 8 node placements.
//
// Paper: before projection the SINR is low (< 3 dB -- backscatter is
// frequency-agnostic, so the two streams collide on both carriers); after
// zero-forcing projection it exceeds 3 dB at every location, with
// location-dependent values.  The binary exits 1 unless every stream ends
// above 3 dB (the claim.fig10.streams_above_3db gauge counts them), so the
// bench.fig10_concurrent ctest enforces the claim.
#include <chrono>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "sim/batch.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"

namespace {

using namespace pab;

struct Location {
  channel::Vec3 node1, node2;
};

const Location kLocations[] = {
    {{1.0, 2.0, 0.65}, {2.0, 2.0, 0.65}},
    {{1.1, 1.8, 0.65}, {1.9, 2.3, 0.65}},
    {{0.9, 2.2, 0.55}, {2.1, 1.8, 0.75}},
    {{1.2, 2.4, 0.65}, {1.8, 1.7, 0.65}},
    {{1.0, 1.6, 0.70}, {2.0, 2.4, 0.60}},
    {{0.8, 2.0, 0.65}, {2.2, 2.1, 0.65}},
    {{1.3, 2.2, 0.60}, {1.7, 1.9, 0.70}},
    {{1.1, 2.5, 0.65}, {2.1, 2.5, 0.65}},
};

void print_series() {
  bench::print_header(
      "Figure 10", "SINR before/after MIMO projection, 8 locations, 2 nodes");

  // One Scenario per placement, all derived from the paper's concurrent
  // preset (ideal 300 Pa projector, 15/18 kHz recto-piezos); the 8 frames fan
  // out over a BatchRunner.
  const sim::BatchRunner pool;
  const std::size_t n_locs = std::size(kLocations);
  const auto results = pool.map(n_locs, [&](std::size_t i) {
    sim::Scenario sc = sim::Scenario::pool_a_concurrent()
                           .with_seed(1000 + static_cast<std::uint64_t>(i) + 1)
                           .with_node(kLocations[i].node1);
    sc.field.set_position(1, kLocations[i].node2);
    return sim::Session(sc).run_trial<sim::TrialKind::kNetwork>(/*trial=*/0);
  });

  bench::print_row({"location", "before1", "before2", "after1", "after2",
                    "cond(H)", "BER1", "BER2"});
  // A location whose trial failed counts as two misses, not a skipped row.
  std::vector<double> gains;
  const std::size_t total_streams = 2 * n_locs;
  std::size_t after_above_3 = 0;
  for (std::size_t i = 0; i < n_locs; ++i) {
    if (!results[i].ok()) {
      std::printf("location %zu failed: %s\n", i + 1,
                  results[i].error().message().c_str());
      continue;
    }
    const core::NetworkRunResult& r = results[i].value();
    for (int s = 0; s < 2; ++s) {
      gains.push_back(r.sinr_after_db[s] - r.sinr_before_db[s]);
      if (r.sinr_after_db[s] > 3.0) ++after_above_3;
    }
    bench::print_row({bench::fmt(static_cast<double>(i + 1), 0),
                      bench::fmt(r.sinr_before_db[0], 1),
                      bench::fmt(r.sinr_before_db[1], 1),
                      bench::fmt(r.sinr_after_db[0], 1),
                      bench::fmt(r.sinr_after_db[1], 1),
                      bench::fmt(r.condition_number, 1),
                      bench::fmt(r.ber_after[0], 3),
                      bench::fmt(r.ber_after[1], 3)});
  }
  const double mean_gain_db = mean(gains);
  std::printf("\nmean SINR gain from projection: %.1f dB\n", mean_gain_db);
  std::printf("streams above 3 dB after projection: %zu / %zu\n",
              after_above_3, total_streams);
  std::printf("Paper shape: before < 3 dB (collisions), after > 3 dB at all\n"
              "locations; location-dependent values.\n");
  auto& registry = obs::MetricRegistry::global();
  registry.gauge("claim.fig10.streams_above_3db")
      .set(static_cast<double>(after_above_3));
  registry.gauge("claim.fig10.mean_gain_db").set(mean_gain_db);

  // Event-driven cross-check on the first placement: one discrete-event
  // round (cold-start, timed inventory, poll) through sim::Timeline.  The
  // session publishes sim.timeline.{events_processed,simulated_s,pending}
  // into the global registry (this bench's sidecar); the wall-time rate gauge
  // is the scheduler-throughput baseline for later perf work.
  sim::Scenario sc = sim::Scenario::pool_a_concurrent()
                         .with_seed(1001)
                         .with_node(kLocations[0].node1);
  sc.field.set_position(1, kLocations[0].node2);
  const sim::Session session(sc);
  const auto t0 = std::chrono::steady_clock::now();
  const auto round = session.run_trial<sim::TrialKind::kTimeline>(/*trial=*/0);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (round.ok()) {
    const auto& r = round.value();
    obs::MetricRegistry::global()
        .gauge("sim.timeline.events_per_sec")
        .set(wall_s > 0.0 ? static_cast<double>(r.events_processed) / wall_s
                          : 0.0);
    std::printf("\nEvent-driven round (location 1): %zu nodes identified, "
                "%zu events over %.1f simulated s\n",
                r.identified.size(), r.events_processed, r.simulated_s);
  } else {
    std::printf("\nEvent-driven round failed: %s\n",
                round.error().message().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fig10_concurrent";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fig10_concurrent";
  sweep.kind = pab::sim::TrialKind::kNetwork;
  sweep.preset = "pool_a_concurrent";
  sweep.trials_per_point = 16;
  spec.campaign = std::move(sweep);
  spec.required_metrics = {
      {"sim.session.trials", 1},
      {"claim.fig10.streams_above_3db", 2.0 * std::size(kLocations)}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
