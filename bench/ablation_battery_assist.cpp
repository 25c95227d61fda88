// Ablation (paper section 8 / section 1): battery-assisted backscatter.
//
// "One could achieve higher throughputs and ranges by adapting
// battery-assisted backscatter implementations from RF designs, which would
// enable deep-sea deployments...  while still inheriting PAB's benefits of
// ultra-low power backscatter communication."  This bench adds a reflection
// amplifier (0 / 10 / 20 dB) and measures the uplink-SNR-limited range and
// the energy per bit, against the active-transmitter baseline.
#include <cmath>

#include "bench_util.hpp"
#include "channel/noise.hpp"
#include "channel/water.hpp"
#include "circuit/rectopiezo.hpp"
#include "energy/mcu.hpp"
#include "piezo/transducer.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kCarrier = 15000.0;
constexpr double kBitrate = 1000.0;
constexpr double kProjectorPressure1m = 3000.0;  // strong drive [Pa @ 1 m]

// Free-field uplink-SNR range: largest distance d (projector, node, and
// hydrophone co-located for simplicity: two-way spreading) where the chip
// SNR clears the 2 dB decode floor against sea noise.
double uplink_range_m(const circuit::RectoPiezo& fe) {
  const channel::NoiseModel noise = channel::sea_noise(kCarrier);
  const double noise_rms = noise.rms_pressure_pa(2.0 * kBitrate);
  double best = 0.0;
  for (double d = 1.0; d <= 3000.0; d *= 1.03) {
    const double g = channel::path_amplitude_gain(d, kCarrier);
    const double incident = kProjectorPressure1m * g;
    const double mod = incident * fe.modulation_depth(kCarrier) * g;
    const double snr_db = db_from_amplitude_ratio(
        (mod / std::numbers::sqrt2) / std::max(noise_rms, 1e-12));
    if (snr_db >= 2.0) best = d;
  }
  return best;
}

void print_series() {
  bench::print_header("Ablation: battery-assisted backscatter",
                      "Range and energy per bit vs reflection-amplifier gain");
  const energy::McuPowerModel mcu;

  bench::print_row({"assist [dB]", "range [m]", "node power [W]",
                    "energy/bit [J]", "battery-free"});
  std::vector<double> ranges;
  for (double gain_db : {0.0, 10.0, 20.0}) {
    circuit::RectoPiezoConfig cfg;
    cfg.match_frequency_hz = kCarrier;
    cfg.assist_gain_db = gain_db;
    const circuit::RectoPiezo fe(piezo::make_node_transducer(), cfg);
    const double range = uplink_range_m(fe);
    ranges.push_back(range);
    // Power at a representative mid-range field strength.
    const double p_mid =
        kProjectorPressure1m * channel::path_amplitude_gain(range / 2.0, kCarrier);
    const double power =
        mcu.backscatter_power_w(kBitrate) + fe.assist_power_w(p_mid);
    bench::print_row({bench::fmt(gain_db, 0), bench::fmt(range, 0),
                      bench::fmt_sci(power), bench::fmt_sci(power / kBitrate),
                      gain_db == 0.0 ? "yes" : "no"});
  }

  // Active-transmitter reference point.
  const auto xdcr = piezo::make_node_transducer();
  const double eta = xdcr.bvd().r_rad / xdcr.bvd().rm;
  const double active_power = 0.1 / eta / 0.8;
  std::printf("\nactive acoustic transmitter reference: %.2e W, %.2e J/bit\n",
              active_power, active_power / kBitrate);
  // Range ratios straight from the table rows above.
  const double gain_10db = ranges[1] / ranges[0];
  const double gain_20db = ranges[2] / ranges[0];
  auto& registry = obs::MetricRegistry::global();
  registry.gauge("bench.battery_assist.range_gain_10db").set(gain_10db);
  registry.gauge("bench.battery_assist.range_gain_20db").set(gain_20db);
  std::printf("Shape: reflection gain stretches the uplink range %.1fx at +10 dB\n"
              "and %.1fx at +20 dB while the node still burns orders of magnitude\n"
              "less than an active transmitter (section 8 'hybrid systems').\n",
              gain_10db, gain_20db);
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ablation_battery_assist";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ablation_battery_assist";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 12;
  sweep.axes.push_back({"projector.drive_v", {5.0, 10.0, 20.0}});
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
