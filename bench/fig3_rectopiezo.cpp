// Figure 3: Recto-piezo rectified voltage vs. downlink frequency.
//
// Paper: two recto-piezos, one electrically matched at 15 kHz and one at
// 18 kHz; rectified voltage peaks (~4 V) at each device's match frequency,
// drops below the 2.5 V power-up threshold outside a ~1.5-3 kHz band, and the
// two responses are complementary.
#include "bench_util.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"

namespace {

using namespace pab;

// Equalized downlink drive: the paper re-matches the power amplifier to the
// projector for each operating frequency, so the incident level at the node
// is roughly constant across the sweep.
constexpr double kIncidentPa = 65.0;
constexpr double kPowerUpV = 2.5;

void print_series() {
  bench::print_header("Figure 3",
                      "Rectified voltage vs frequency for two recto-piezos");
  const auto rp15 = circuit::make_recto_piezo(15000.0);
  const auto rp18 = circuit::make_recto_piezo(18000.0);

  bench::print_row({"f [kHz]", "V(15k) [V]", "V(18k) [V]", ">=2.5V"});
  double peak15 = 0.0, peak15_f = 0.0, peak18 = 0.0, peak18_f = 0.0;
  double band15_lo = 0.0, band15_hi = 0.0, band18_lo = 0.0, band18_hi = 0.0;
  for (double f = 11000.0; f <= 21000.0 + 1.0; f += 250.0) {
    const double v15 = rp15.rectified_open_voltage(f, kIncidentPa);
    const double v18 = rp18.rectified_open_voltage(f, kIncidentPa);
    if (v15 > peak15) { peak15 = v15; peak15_f = f; }
    if (v18 > peak18) { peak18 = v18; peak18_f = f; }
    if (v15 >= kPowerUpV) {
      if (band15_lo == 0.0) band15_lo = f;
      band15_hi = f;
    }
    if (v18 >= kPowerUpV) {
      if (band18_lo == 0.0) band18_lo = f;
      band18_hi = f;
    }
    std::string marks;
    if (v15 >= kPowerUpV) marks += "15k ";
    if (v18 >= kPowerUpV) marks += "18k";
    bench::print_row({bench::fmt(f / 1000.0, 2), bench::fmt(v15),
                      bench::fmt(v18), marks.empty() ? "-" : marks});
  }

  std::printf("\n15 kHz recto-piezo: peak %.2f V at %.2f kHz; power-up band "
              "%.2f-%.2f kHz (%.2f kHz wide)\n",
              peak15, peak15_f / 1000.0, band15_lo / 1000.0, band15_hi / 1000.0,
              (band15_hi - band15_lo) / 1000.0);
  std::printf("18 kHz recto-piezo: peak %.2f V at %.2f kHz; power-up band "
              "%.2f-%.2f kHz (%.2f kHz wide)\n",
              peak18, peak18_f / 1000.0, band18_lo / 1000.0, band18_hi / 1000.0,
              (band18_hi - band18_lo) / 1000.0);
  std::printf("Paper shape: ~4 V peaks at 15/18 kHz, usable bandwidths of\n"
              "1.5-3 kHz, complementary responses enabling FDMA.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fig3_rectopiezo";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fig3_rectopiezo";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 8;
  sweep.axes.push_back({"waveform.carrier_hz", {12500.0, 15000.0, 17500.0}});
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
