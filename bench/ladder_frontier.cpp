// Ladder frontier: delivered throughput vs SNR for every modulation scheme.
//
// The rate-control ladder (mac/rate_control.hpp) walks (scheme, clock) rungs
// on soft link-quality metrics; this bench plots the frontier those rungs
// live on.  Each scheme runs the close tank placement of Fig. 8 across a
// noise-PSD sweep (the SNR proxy the tank links actually vary by) and
// reports delivered throughput -- data rate times the fraction of trials
// that decode clean -- plus the soft metrics (MER/EVM) the controller keys
// on.  FM0 owns the noisy end (lowest decode floor), FSK4 owns the quiet end
// (two bits per symbol at the same switch clock); the crossover is the
// ladder's reason to exist.
//
// Sidecar contract (asserted by CI): for every scheme the metrics JSON
// carries `ladder.<scheme>.throughput_bps` (peak delivered over the sweep)
// and `ladder.<scheme>.evm_rms` (at the quietest point), and the
// `bench.ladder.schemes_published` counter equals the scheme count.
#include <cstddef>
#include <vector>

#include "bench_util.hpp"
#include "phy/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/batch.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"

namespace {

using namespace pab;

// One frontier rung: a scheme at its MCU switch-clock (symbol) rate.  The
// on-air data rate is clock * bits_per_symbol -- FSK4 moves two bits per
// symbol, so at the same clock it doubles the delivered rate.
struct FrontierRung {
  phy::SchemeId scheme = phy::SchemeId::kFm0;
  double clock_hz = 1000.0;
};

const FrontierRung kRungs[] = {
    {phy::SchemeId::kFm0, 1000.0},
    {phy::SchemeId::kFsk2, 1000.0},
    {phy::SchemeId::kFsk4, 1000.0},
};

// Quiet -> loud facility ambient; Fig. 8's tank sits at 82 dB re uPa.
const double kNoisePsd[] = {55.0, 70.0, 79.0, 85.0, 91.0};

constexpr int kTrialsPerPoint = 4;

core::Placement close_placement() {
  // Fig. 8's "within a meter of both the projector and the hydrophone".
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  return pl;
}

struct Point {
  double delivered_bps = 0.0;
  double mer_db = 0.0;
  double evm_rms = 0.0;
  int decoded = 0;
};

Point run_point(const FrontierRung& rung, double noise_psd) {
  const auto& sd = phy::scheme_descriptor(rung.scheme);
  const double data_rate = rung.clock_hz * sd.bits_per_symbol;
  sim::Scenario sc =
      sim::Scenario::pool_a()
          .with_seed(4000 + 17 * static_cast<std::uint64_t>(noise_psd) +
                     static_cast<std::uint64_t>(rung.scheme))
          .with_placement(close_placement());
  sc.medium.noise.psd_db_re_upa = noise_psd;
  sc.waveform.scheme = rung.scheme;
  sc.waveform.bitrate = data_rate;
  sc.waveform.payload_bits = 96;
  const sim::Session session(sc);
  const sim::BatchRunner pool;
  const auto trials = pool.run<sim::TrialKind::kUplink>(session, kTrialsPerPoint);

  Point p;
  std::vector<double> mers, evms;
  for (const auto& t : trials) {
    if (!t.ok()) continue;
    mers.push_back(t.value().demod.quality.mer_db);
    evms.push_back(t.value().demod.quality.evm_rms);
    if (t.value().ber == 0.0) ++p.decoded;
  }
  p.delivered_bps =
      data_rate * static_cast<double>(p.decoded) / kTrialsPerPoint;
  p.mer_db = mers.empty() ? -99.0 : mean(mers);
  p.evm_rms = evms.empty() ? 9.99 : mean(evms);
  return p;
}

void print_series() {
  bench::print_header(
      "Ladder frontier",
      "Delivered throughput vs noise PSD per modulation scheme");
  auto& registry = obs::MetricRegistry::global();

  bench::print_row({"scheme", "clock [Hz]", "psd [dB]", "delivered", "MER [dB]",
                    "EVM", "decoded"});
  for (const auto& rung : kRungs) {
    const auto& sd = phy::scheme_descriptor(rung.scheme);
    const std::string name(phy::to_string(rung.scheme));
    double peak_bps = 0.0;
    double quiet_evm = 9.99;
    for (std::size_t n = 0; n < std::size(kNoisePsd); ++n) {
      const Point p = run_point(rung, kNoisePsd[n]);
      if (n == 0) quiet_evm = p.evm_rms;
      peak_bps = std::max(peak_bps, p.delivered_bps);
      bench::print_row(
          {name, bench::fmt(rung.clock_hz, 0),
           bench::fmt(kNoisePsd[n], 0), bench::fmt(p.delivered_bps, 0),
           bench::fmt(p.mer_db, 1), bench::fmt(p.evm_rms, 3),
           bench::fmt(p.decoded, 0) + "/" + bench::fmt(kTrialsPerPoint, 0)});
    }
    const std::string stem = "ladder." + name;
    registry.gauge(stem + ".throughput_bps").set(peak_bps);
    registry.gauge(stem + ".evm_rms").set(quiet_evm);
    registry.gauge(stem + ".decode_floor_db").set(sd.decode_floor_db);
    registry.counter("bench.ladder.schemes_published").add(1);
  }

  std::printf("\nfrontier: FM0's 2 dB floor holds the loud end; FSK4's two\n"
              "bits/symbol doubles the quiet-end rate at the same switch\n"
              "clock -- the crossover is what the soft-metric ladder walks.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ladder_frontier";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ladder_frontier";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 12;
  sweep.axes.push_back({"waveform.scheme", {0.0, 1.0, 2.0}});
  sweep.axes.push_back({"noise.psd_db_re_upa", {55.0, 79.0, 91.0}});
  spec.campaign = std::move(sweep);
  spec.required_metrics = {{"sim.session.trials", 1},
                           {"sim.batch.trials", 1},
                           {"bench.ladder.schemes_published", 1}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
