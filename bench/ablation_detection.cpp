// Ablation: packet-detection operating curve.
//
// The receiver detects packets by windowed Pearson correlation against the
// FM0 preamble (section 5.1b's "standard packet detection").  This bench maps
// the detector's operating points: detection probability vs SNR at the
// default threshold, and the false-alarm/missed-detection trade as the
// threshold moves -- the numbers behind choosing 0.5.
#include <cmath>

#include "bench_util.hpp"
#include "phy/scheme.hpp"
#include "sim/batch.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kFs = 96000.0;
constexpr double kBitrate = 1000.0;

// Synthetic envelope: pedestal + preamble/payload swing + noise.
std::vector<double> make_envelope(bool with_packet, double snr_db, Rng& rng) {
  const double amp = 0.05;
  const double noise = amp / std::sqrt(power_ratio_from_db(snr_db));
  std::vector<double> env(24000, 1.0);
  if (with_packet) {
    const auto payload = rng.bits(64);
    const auto sw =
        phy::scheme_waveform(phy::SchemeId::kFm0, payload, kBitrate, kFs);
    const std::size_t start = 4000;
    for (std::size_t i = 0; i < sw.size() && start + i < env.size(); ++i)
      env[start + i] += sw[i] == phy::SwitchState::kReflective ? amp : -amp;
  }
  for (auto& v : env) v += rng.gaussian(0.0, noise);
  return env;
}

// Each trial draws from its own RNG substream of `base_seed` and the batch
// fans them over the pool, so the curve is schedule-independent.
double detection_rate(double threshold, double snr_db, bool with_packet,
                      std::size_t trials, std::uint64_t base_seed,
                      const sim::BatchRunner& batch) {
  phy::DemodConfig cfg;
  cfg.bitrate = kBitrate;
  cfg.detect_threshold = threshold;
  const phy::SchemeDemodulator demod({phy::SchemeId::kFm0, cfg});
  const auto hits =
      batch.map_seeded(trials, base_seed, [&](std::size_t, Rng& rng) {
        const auto env = make_envelope(with_packet, snr_db, rng);
        return demod.demodulate_envelope(env, kFs, 64).ok() ? 1 : 0;
      });
  int total = 0;
  for (int h : hits) total += h;
  return static_cast<double>(total) / static_cast<double>(trials);
}

void print_series() {
  bench::print_header("Ablation: packet detection",
                      "Detection probability and false alarms vs threshold");
  const sim::BatchRunner batch;
  std::uint64_t point = 0;

  bench::print_row({"chip SNR [dB]", "P(detect) @0.5"});
  for (double snr : {-6.0, -3.0, 0.0, 3.0, 6.0, 12.0}) {
    bench::print_row(
        {bench::fmt(snr, 0),
         bench::fmt(detection_rate(0.5, snr, true, 30, 5500 + point++, batch),
                    2)});
  }

  std::printf("\n");
  bench::print_row({"threshold", "P(detect) @0dB", "P(false alarm)"});
  for (double th : {0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
    bench::print_row(
        {bench::fmt(th, 1),
         bench::fmt(detection_rate(th, 0.0, true, 30, 5500 + point++, batch), 2),
         bench::fmt(detection_rate(th, 0.0, false, 30, 5500 + point++, batch),
                    2)});
  }
  std::printf("\nShape: the default threshold (0.5) detects essentially every\n"
              "packet at the FM0 decode floor (~2 dB chip SNR, Fig. 7) while\n"
              "keeping false alarms on pure noise near zero.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ablation_detection";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ablation_detection";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 12;
  sweep.axes.push_back({"noise.psd_db_re_upa", {40.0, 50.0, 60.0}});
  spec.campaign = std::move(sweep);
  spec.required_metrics = {{"sim.batch.trials", 1}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
