// Ablation (paper footnote 4): CDMA vs FDMA for concurrent backscatter.
//
// The paper dismisses CDMA because it "requires the same overall bandwidth as
// standard FDMA".  This bench quantifies that and the two extra costs CDMA
// brings to backscatter: per-user rate divides by the spreading factor inside
// the fixed recto-piezo band, and the near-far problem (no transmit power
// control on a passive node).
#include <cmath>

#include "bench_util.hpp"
#include "phy/cdma.hpp"
#include "phy/fm0.hpp"
#include "phy/metrics.hpp"
#include "sim/batch.hpp"
#include "util/rng.hpp"

namespace {

using namespace pab;

constexpr double kUsableBandwidthHz = 2400.0;  // one recto-piezo channel

void print_series() {
  bench::print_header("Ablation: CDMA vs FDMA",
                      "Bandwidth, per-user rate, and near-far (footnote 4)");

  // --- Bandwidth accounting ---------------------------------------------------
  const double fdma_user_rate = kUsableBandwidthHz / 2.0 / 2.0;  // FM0: BW=2R
  bench::print_row({"scheme", "users", "occupied BW", "per-user rate"});
  bench::print_row({"FDMA (2 channels)", "2",
                    bench::fmt(2.0 * kUsableBandwidthHz / 1000.0, 1) + " kHz",
                    bench::fmt(fdma_user_rate, 0) + " bps"});
  for (std::size_t sf : {2u, 4u}) {
    // CDMA in ONE channel: chip rate fills the band; data rate divides by SF.
    const double chip_rate = kUsableBandwidthHz / 2.0;
    const double user_rate = chip_rate / static_cast<double>(sf) / 2.0;
    bench::print_row({"CDMA (SF=" + bench::fmt(sf, 0) + ")",
                      bench::fmt(sf, 0),
                      bench::fmt(kUsableBandwidthHz / 1000.0, 1) + " kHz",
                      bench::fmt(user_rate, 0) + " bps"});
  }
  std::printf("\nAggregate rate is bandwidth-bound either way: to serve 2 users\n"
              "at the FDMA per-user rate, CDMA needs 2x the chip rate = the\n"
              "same total spectrum (the paper's footnote-4 argument).\n\n");

  // --- Near-far: decode the weak user under a strong interferer ----------------
  // 20 Monte-Carlo trials per power ratio, fanned over a BatchRunner with
  // per-trial RNG substreams.
  const sim::BatchRunner batch;
  bench::print_row({"power ratio", "weak-user BER (CDMA, SF=4)"});
  std::uint64_t ratio_idx = 0;
  for (double ratio : {1.0, 3.0, 10.0, 30.0}) {
    const auto code1 = phy::walsh_code(4, 1);
    const auto code2 = phy::walsh_code(4, 2);
    const auto errors_per_trial = batch.map_seeded(
        20, 8000 + ratio_idx++, [&](std::size_t, Rng& rng) {
          const auto bits1 = rng.bits(100);
          const auto bits2 = rng.bits(100);
          const auto d1 = phy::fm0_encode(bits1);
          const auto d2 = phy::fm0_encode(bits2);
          const auto s1 = phy::cdma_spread(d1, code1);
          const auto s2 = phy::cdma_spread(d2, code2);
          // User 2 is `ratio`x stronger and arrives 1 chip late (asynchronous
          // backscatter: the reader cannot chip-align two passive reflectors).
          std::vector<double> rx(s1.size());
          for (std::size_t i = 0; i < rx.size(); ++i) {
            const double a = static_cast<double>(s1[i]);
            const double b = i >= 1 ? static_cast<double>(s2[i - 1]) : 0.0;
            rx[i] = a + ratio * b + rng.gaussian(0.0, 0.3);
          }
          const auto soft = phy::cdma_despread(rx, code1);
          const auto decoded = phy::fm0_decode_ml(soft);
          return hamming_distance(bits1, decoded);
        });
    std::size_t errors = 0, total = 0;
    for (std::size_t e : errors_per_trial) {
      errors += e;
      total += 100;
    }
    bench::print_row({bench::fmt(ratio, 0) + "x",
                      bench::fmt_sci(static_cast<double>(errors) /
                                     static_cast<double>(total))});
  }
  std::printf("\nAsynchronous arrival breaks Walsh orthogonality, so the weak\n"
              "user drowns as the power imbalance grows -- and passive nodes\n"
              "cannot power-control.  FDMA + collision decoding separates the\n"
              "users by frequency diversity instead (sections 3.3.1-3.3.2).\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ablation_cdma";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ablation_cdma";
  sweep.kind = pab::sim::TrialKind::kNetwork;
  sweep.preset = "pool_a_concurrent";
  sweep.trials_per_point = 8;
  spec.campaign = std::move(sweep);
  spec.required_metrics = {{"sim.batch.trials", 1}};
  return pab::bench::run_bench_main(argc, argv, spec);
}
