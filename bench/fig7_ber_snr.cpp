// Figure 7: BER vs SNR curve of the backscatter link.
//
// Paper: BER decreases with SNR; the decoder needs a minimum SNR around 2 dB
// (typical for biphase modulation like FM0) and BER drops to 1e-5 above
// ~11 dB (floored at 1e-5 by the packet sizes used).
//
// Monte-Carlo at chip level: FM0-encode random payloads, add calibrated AWGN
// to the soft chips, ML-decode, count errors.  Trials fan out over a
// sim::BatchRunner; trial i of each SNR point draws from RNG substream i, so
// the curve is bit-identical at any thread count (verified below).
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "sim/batch.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr std::size_t kBitsPerTrial = 1000;
constexpr std::size_t kTrialsPerPoint = 512;  // 512 kbit per SNR point
constexpr double kBerFloor = 1e-5;  // paper: packets always < 1e5 bits
constexpr std::uint64_t kBaseSeed = 77;

// Bit errors of one chip-level trial at the given noise sigma.
std::size_t trial_errors(double sigma, Rng& rng) {
  const auto bits = rng.bits(kBitsPerTrial);
  const auto chips = phy::fm0_encode(bits);
  std::vector<double> soft(chips.size());
  for (std::size_t i = 0; i < soft.size(); ++i)
    soft[i] = chips[i] + rng.gaussian(0.0, sigma);
  return hamming_distance(bits, phy::fm0_decode_ml(soft));
}

// Total bit errors at one SNR point, fanned over the pool.  Point `point`
// seeds its trials from base seed kBaseSeed + point, so every (point, trial)
// pair maps to one fixed RNG substream regardless of scheduling.
std::size_t measure_errors(double snr_db, std::size_t point,
                           const sim::BatchRunner& pool) {
  const double sigma = 1.0 / std::sqrt(power_ratio_from_db(snr_db));
  const auto errors = pool.map_seeded(
      kTrialsPerPoint, kBaseSeed + point,
      [&](std::size_t, Rng& rng) { return trial_errors(sigma, rng); });
  std::size_t total = 0;
  for (std::size_t e : errors) total += e;
  return total;
}

std::vector<double> snr_grid() {
  std::vector<double> grid;
  for (double snr = 0.0; snr <= 18.0 + 0.1; snr += 1.0) grid.push_back(snr);
  return grid;
}

// The whole sweep at a given thread count; returns total errors per point.
std::vector<std::size_t> sweep(const sim::BatchRunner& pool) {
  const auto grid = snr_grid();
  std::vector<std::size_t> errors;
  errors.reserve(grid.size());
  for (std::size_t p = 0; p < grid.size(); ++p)
    errors.push_back(measure_errors(grid[p], p, pool));
  return errors;
}

void print_series() {
  bench::print_header("Figure 7", "BER-SNR curve (FM0 ML decoding)");
  constexpr double kBitsPerPoint =
      static_cast<double>(kBitsPerTrial * kTrialsPerPoint);

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial = sweep(sim::BatchRunner(1));
  const auto t1 = clock::now();
  const auto parallel = sweep(sim::BatchRunner(8));
  const auto t2 = clock::now();

  const auto grid = snr_grid();
  bench::print_row({"SNR [dB]", "BER"});
  double snr_at_decode_floor = -1.0, snr_at_1e5 = -1.0;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    const double ber = std::max(
        static_cast<double>(serial[p]) / kBitsPerPoint, kBerFloor);
    bench::print_row({bench::fmt(grid[p], 1), bench::fmt_sci(ber)});
    if (snr_at_decode_floor < 0.0 && ber < 0.1) snr_at_decode_floor = grid[p];
    if (snr_at_1e5 < 0.0 && ber <= kBerFloor) snr_at_1e5 = grid[p];
  }
  std::printf("\nDecodable (BER < 10%%) from ~%.0f dB  (paper: ~2 dB)\n",
              snr_at_decode_floor);
  std::printf("BER reaches the 1e-5 floor at ~%.0f dB (paper: ~11 dB)\n",
              snr_at_1e5);

  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double parallel_s = std::chrono::duration<double>(t2 - t1).count();
  std::printf("\nBatchRunner: serial %.2f s, 8 threads %.2f s (%.2fx, %u cores)\n",
              serial_s, parallel_s, serial_s / std::max(parallel_s, 1e-9),
              std::thread::hardware_concurrency());
  std::printf("per-point error counts bit-identical across thread counts: %s\n",
              serial == parallel ? "yes" : "NO -- DETERMINISM BROKEN");

  // Waveform-level cross-check: a short full-pipeline run (projector ->
  // tank multipath -> recto-piezo backscatter -> hydrophone -> receiver
  // chain) in Pool A.  Besides validating that the end-to-end link decodes
  // where the chip-level curve says it should, this populates the metrics
  // sidecar with the TapCache hit rate and the per-stage decode timings
  // (phy.demod.*) of the real receiver.
  const sim::Session session(sim::Scenario::pool_a().with_seed(kBaseSeed));
  constexpr std::size_t kWaveformTrials = 16;
  const auto trials =
      sim::BatchRunner(4).run<sim::TrialKind::kUplink>(session, kWaveformTrials);
  std::size_t decoded = 0;
  double ber_sum = 0.0, snr_sum = 0.0;
  for (const auto& t : trials) {
    if (!t.ok()) continue;
    ++decoded;
    ber_sum += t.value().ber;
    snr_sum += t.value().demod.snr_db;
  }
  const auto& taps = *session.tap_cache();
  std::printf("\nWaveform-level (Pool A, %zu trials): %zu/%zu decoded, "
              "mean BER %.2e at %.1f dB chip SNR\n",
              kWaveformTrials, decoded, kWaveformTrials,
              decoded > 0 ? ber_sum / static_cast<double>(decoded) : 1.0,
              decoded > 0 ? snr_sum / static_cast<double>(decoded) : 0.0);
  std::printf("TapCache: %llu lookups, %llu evaluations (hit rate %.1f %%)\n",
              static_cast<unsigned long long>(taps.lookups()),
              static_cast<unsigned long long>(taps.evaluations()),
              100.0 * (1.0 - static_cast<double>(taps.evaluations()) /
                                 static_cast<double>(taps.lookups())));
}

void bm_fm0_ml_decode(benchmark::State& state) {
  Rng rng(7);
  const auto bits = rng.bits(1000);
  const auto chips = phy::fm0_encode(bits);
  std::vector<double> soft(chips.size());
  for (std::size_t i = 0; i < soft.size(); ++i)
    soft[i] = chips[i] + rng.gaussian(0.0, 0.5);
  for (auto _ : state) {
    auto decoded = phy::fm0_decode_ml(soft);
    benchmark::DoNotOptimize(decoded.data());
  }
}
BENCHMARK(bm_fm0_ml_decode)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fig7_ber_snr";
  spec.description = "BER-SNR curve (FM0 ML decoding)";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fig7_ber_snr";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 64;
  sweep.base_seed = 77;
  sweep.axes.push_back({"noise.psd_db_re_upa", {35.0, 45.0, 55.0, 65.0}});
  spec.campaign = std::move(sweep);
  spec.required_counters = {"sim.session.trials", "sim.batch.trials", "phy.demod.attempts"};
  return pab::bench::run_bench_main(argc, argv, spec);
}
