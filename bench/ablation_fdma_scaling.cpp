// Ablation (paper section 8, "Transducer Tunability"): how far does the FDMA
// gain scale with the number of concurrent recto-piezos?
//
// "In principle, the gain from FDMA scales as the number of nodes with
// different resonance frequencies increases.  However, the tunability of a
// PAB sensor will be limited by the efficiency and bandwidth of the
// piezoelectric transducer design."  This bench packs N = 1..5 channels into
// the cylinder's usable band and measures aggregate goodput, per-node BER,
// and channel-matrix conditioning.
#include <cmath>

#include "bench_util.hpp"
#include "core/network.hpp"
#include "sim/batch.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

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

void print_series() {
  bench::print_header("Ablation: FDMA scaling",
                      "Aggregate goodput and conditioning vs channel count");
  bench::print_row({"N", "goodput [bps]", "gain vs N=1", "cond(H)",
                    "decoded", "worst BER"});

  // One N-node Scenario per channel count, fanned over a BatchRunner.
  const sim::BatchRunner pool;
  const auto results = pool.map(5, [&](std::size_t i) {
    const std::size_t n = i + 1;
    sim::Scenario sc = sim::Scenario::pool_a().with_seed(500 + n);
    sc.reader.projector = {1.5, 1.2, 0.65};
    sc.reader.hydrophone = {1.5, 2.8, 0.65};
    sc.projector.ideal = true;
    sc.fdma = plan_for(n);
    const auto positions = ring_positions(n);
    sc.field = sim::NodeField::empty();
    for (std::size_t j = 0; j < positions.size(); ++j)
      sc.field.push_back(positions[j],
                         sim::FrontEndSpec{.match_frequency_hz =
                                               sc.fdma.carriers_hz[j]});
    return sim::Session(sc).run_trial<sim::TrialKind::kNetwork>(/*trial=*/0);
  });

  double base = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t n = i + 1;
    if (!results[i].ok()) {
      std::printf("N=%zu failed: %s\n", n, results[i].error().message().c_str());
      continue;
    }
    const core::NetworkRunResult& r = results[i].value();
    if (n == 1) base = r.aggregate_goodput_bps;
    int decoded = 0;
    double worst = 0.0;
    for (double b : r.ber_after) {
      if (b < 0.01) ++decoded;
      worst = std::max(worst, b);
    }
    bench::print_row(
        {bench::fmt(n, 0), bench::fmt(r.aggregate_goodput_bps, 0),
         bench::fmt(base > 0 ? r.aggregate_goodput_bps / base : 0.0, 2) + "x",
         bench::fmt(r.condition_number, 1),
         bench::fmt(decoded, 0) + "/" + bench::fmt(n, 0),
         bench::fmt(worst, 3)});
  }
  std::printf("\nShape: aggregate goodput grows while channels fit inside the\n"
              "transducer band, then saturates/degrades as spacing shrinks --\n"
              "conditioning worsens and band-edge nodes fail (section 8).\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ablation_fdma_scaling";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ablation_fdma_scaling";
  sweep.kind = pab::sim::TrialKind::kNetwork;
  sweep.preset = "pool_a_concurrent";
  sweep.trials_per_point = 8;
  sweep.axes.push_back({"fdma.bitrate", {250.0, 500.0}});
  spec.campaign = std::move(sweep);
  spec.required_metrics = {{"sim.session.trials", 1}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
