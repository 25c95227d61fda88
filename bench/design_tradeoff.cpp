// Design-space tradeoff (paper section 4.1 + footnote 8): operating frequency
// vs transducer size, bandwidth/bitrate, and open-water range.
//
// "Lower acoustic frequencies experience less attenuation in underwater
// environments, but they also have narrower bandwidths (which further limits
// their throughput) and require larger cylinder dimensions...  For example, a
// resonator with center frequency of 500 Hz can propagate over 1000 km, but
// has a bitrate of 100 bps and is 3600x larger than our cylinder."
#include <cmath>

#include "bench_util.hpp"
#include "channel/noise.hpp"
#include "channel/water.hpp"
#include "piezo/bvd.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kRefFrequency = 17000.0;  // the paper's cylinder (in air)

// Communication range: distance where a 170.8 dB source (1 W acoustic) still
// clears the Wenz ambient noise in the signal band by 2 dB (the FM0 decode
// floor of Fig. 7).
double comm_range_km(double freq_hz, double bandwidth_hz) {
  const double sl_db = 170.8;
  const channel::NoiseModel noise = channel::sea_noise(freq_hz);
  const double noise_db =
      noise.psd_db_re_upa + 10.0 * std::log10(std::max(bandwidth_hz, 1.0));
  const double required_rx = noise_db + 2.0;
  double last_ok = 0.0;
  for (double d = 0.1; d <= 20000.0; d *= 1.05) {
    const double rx = sl_db - channel::transmission_loss_db(d * 1000.0, freq_hz);
    if (rx >= required_rx) last_ok = d;
  }
  return last_ok;
}

void print_series() {
  bench::print_header(
      "Design tradeoff",
      "Resonance frequency vs size, bandwidth, bitrate, range (footnote 8)");

  bench::print_row({"f0 [Hz]", "rel. size", "BW [Hz]", "bitrate [bps]",
                    "alpha[dB/km]", "range [km]"});
  for (double f : {500.0, 1000.0, 2000.0, 5000.0, 10000.0, 17000.0}) {
    // Cylinder dimensions scale inversely with frequency -> volume with the
    // cube (paper section 4.1: "the dimensions of the resonator are
    // inversely proportional to its frequency").
    const double rel_volume = std::pow(kRefFrequency / f, 3.0);
    // Water-loaded Q ~ 3.5 across geometrically similar builds.
    const piezo::BvdParams bvd = piezo::synthesize_bvd(f, 3.5, 8e-9, 0.30, 0.70);
    const double bw = bvd.bandwidth_hz();
    // Usable FM0 bitrate ~ BW / 5 (Fig. 8: 15 kHz / ~2.4 kHz band -> 3 kbps
    // works, 5 kbps collapses).
    const double bitrate = bw / 5.0;
    const double alpha = channel::thorp_absorption_db_per_km(f);
    const double range = comm_range_km(f, bw);
    bench::print_row({bench::fmt(f, 0), bench::fmt(rel_volume, 0) + "x",
                      bench::fmt(bw, 0), bench::fmt(bitrate, 0),
                      bench::fmt(alpha, 3), bench::fmt(range, 0)});
  }
  std::printf("\nPaper anchor (footnote 8): a 500 Hz resonator propagates over\n"
              "1000 km (with cylindrical spreading and specialized sources;\n"
              "this table assumes conservative spherical spreading throughout),\n"
              "delivers ~100 bps, and is thousands of times larger than the\n"
              "17 kHz cylinder.  The trend matches: lower frequency -> longer\n"
              "range, lower bitrate, much larger transducer.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "design_tradeoff";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "design_tradeoff";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 12;
  sweep.axes.push_back({"waveform.carrier_hz", {10000.0, 15000.0, 20000.0}});
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
