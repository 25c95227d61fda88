// Extension study (paper section 8, "Operation Environment"): mobility and
// surface waves.
//
// "These settings are also likely to introduce new challenges, such as
// mobility and multipath, which would be interesting to explore."  This bench
// quantifies (a) the Doppler a moving node imposes and how well the
// receiver's CFO estimator tracks it, and (b) the fading depth a heaving
// surface imposes on a shallow link.
#include <cmath>

#include "bench_util.hpp"
#include "channel/timevarying.hpp"
#include "phy/cfo.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kCarrier = 15000.0;
constexpr double kFs = 48000.0;

dsp::BasebandSignal cw(double amp, double duration) {
  dsp::BasebandSignal s;
  s.sample_rate = kFs;
  s.carrier_hz = kCarrier;
  s.samples.assign(static_cast<std::size_t>(duration * kFs), dsp::cplx(amp, 0.0));
  return s;
}

void print_series() {
  bench::print_header("Mobility & waves",
                      "Doppler tracking and surface-wave fading (section 8)");

  // --- Doppler vs speed -------------------------------------------------------
  bench::print_row({"speed [m/s]", "Doppler [Hz]", "CFO est [Hz]", "err [Hz]"});
  for (double v : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    channel::MovingPathConfig cfg;
    cfg.source = {0, 0, 0};
    cfg.rx_start = {30.0, 0, 0};
    cfg.rx_velocity = {-v, 0, 0};  // closing
    const auto rx = channel::propagate_moving(cw(1.0, 0.5), cfg);
    const std::size_t skip = static_cast<std::size_t>(0.05 * kFs);
    const std::vector<dsp::cplx> seg(rx.samples.begin() + skip,
                                     rx.samples.end() - skip);
    const double est = phy::estimate_cfo_hz(seg, kFs);
    const double truth = channel::doppler_shift_at(cfg, kCarrier, 0.0);
    bench::print_row({bench::fmt(v, 2), bench::fmt(truth, 2), bench::fmt(est, 2),
                      bench::fmt(est - truth, 3)});
  }
  std::printf("\nA 1 m/s swimmer shifts the 15 kHz carrier ~10 Hz; the standard\n"
              "CFO estimator (paper footnote 12) tracks it to sub-Hz.\n\n");

  // --- Surface-wave fading ------------------------------------------------------
  bench::print_row({"wave amp [m]", "fade depth [dB]"});
  for (double a : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    channel::WavySurfaceConfig cfg;
    cfg.source = {0, 0, 0.5};
    cfg.receiver = {4.0, 0, 0.5};
    cfg.surface_z = 1.0;
    cfg.wave_amplitude = a;
    bench::print_row({bench::fmt(a, 2),
                      bench::fmt(channel::fade_depth_db(cfg, kCarrier), 1)});
  }
  std::printf("\nCentimeter swell already moves the surface image through full\n"
              "constructive/destructive cycles at a 10 cm wavelength -- the\n"
              "dynamic multipath open-water PAB must ride out.\n");
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "mobility";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "mobility";
  sweep.kind = pab::sim::TrialKind::kTimeline;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 8;
  sweep.timeline["max_drift_mps"] = 0.5;
  sweep.timeline["horizon_s"] = 20.0;
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
