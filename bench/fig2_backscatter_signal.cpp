// Figure 2: Received and demodulated backscatter signal.
//
// Paper: projector starts a 15 kHz CW; once the PAB node begins toggling its
// switch every 100 ms, the demodulated hydrophone amplitude alternates
// between two levels (reflective/absorptive).  This bench reproduces the
// trace: silence -> constant carrier -> two-level alternation, and prints the
// measured levels.
#include "bench_util.hpp"
#include "channel/propagation.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/link.hpp"
#include "core/projector.hpp"
#include "dsp/mixer.hpp"
#include "sim/scenario.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kFs = 96000.0;
constexpr double kCarrier = 15000.0;
constexpr double kToggleS = 0.1;    // paper: switch every 100 ms
constexpr double kCarrierOn = 0.3;  // projector turns on at t=0.3 s
constexpr double kNodeOn = 0.7;     // node starts backscattering at t=0.7 s
constexpr double kTotal = 1.6;

dsp::Signal synthesize_trace() {
  core::SimConfig sc = sim::Scenario::pool_a().medium;
  core::Placement pl;
  const auto proj = core::Projector(piezo::make_projector_transducer(), 50.0);
  const auto fe = circuit::make_recto_piezo(15000.0);
  pab::Rng rng(2);

  // Projector envelope: silence then CW.
  dsp::BasebandSignal tx = proj.cw_envelope(kCarrier, kTotal - kCarrierOn, kFs,
                                            /*lead_silence_s=*/kCarrierOn);

  const auto taps_pn = channel::image_method_taps(sc.tank, pl.projector, pl.node,
                                                  sc.max_image_order, kCarrier);
  const auto taps_ph = channel::image_method_taps(
      sc.tank, pl.projector, pl.hydrophone, sc.max_image_order, kCarrier);
  const auto taps_nh = channel::image_method_taps(
      sc.tank, pl.node, pl.hydrophone, sc.max_image_order, kCarrier);

  const dsp::BasebandSignal at_node = channel::apply_taps_baseband(tx, taps_pn);
  dsp::BasebandSignal direct = channel::apply_taps_baseband(tx, taps_ph);

  const dsp::cplx g_r = fe.scatter_gain(kCarrier, true);
  const dsp::cplx g_a = fe.scatter_gain(kCarrier, false);
  dsp::BasebandSignal scat;
  scat.sample_rate = kFs;
  scat.carrier_hz = kCarrier;
  scat.samples.resize(at_node.size());
  for (std::size_t i = 0; i < at_node.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    dsp::cplx g = g_a;
    if (t >= kNodeOn) {
      const auto phase = static_cast<int>((t - kNodeOn) / kToggleS);
      g = (phase % 2 == 0) ? g_r : g_a;
    }
    scat.samples[i] = at_node.samples[i] * g;
  }
  direct.accumulate(channel::apply_taps_baseband(scat, taps_nh));

  dsp::Signal capture;
  capture.sample_rate = kFs;
  capture.samples.resize(direct.size());
  const double sens = sc.hydrophone.volts_per_pascal();
  const double noise_sd = sc.noise.sample_stddev_pa(kFs);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const double ph = kTwoPi * kCarrier * static_cast<double>(i) / kFs;
    const double p = direct.samples[i].real() * std::cos(ph) -
                     direct.samples[i].imag() * std::sin(ph) +
                     rng.gaussian(0.0, noise_sd);
    capture.samples[i] = sens * p;
  }
  return capture;
}

void print_series() {
  bench::print_header("Figure 2", "Received and demodulated backscatter signal");
  std::printf("Projector CW at 15 kHz starts at t=%.1f s; node toggles its\n"
              "reflection state every %.0f ms starting at t=%.1f s.\n\n",
              kCarrierOn, kToggleS * 1000.0, kNodeOn);

  const dsp::Signal capture = synthesize_trace();
  // Paper's processing: demodulate (down-convert) and low-pass filter.
  const auto bb = dsp::downconvert_filtered(capture, kCarrier, 200.0, 4);
  std::vector<double> env(bb.size());
  for (std::size_t i = 0; i < bb.size(); ++i) env[i] = std::abs(bb.samples[i]);

  bench::print_row({"t [s]", "amplitude [V]", "phase"});
  for (double t = 0.0; t < kTotal - 0.02; t += 0.025) {
    const auto i = static_cast<std::size_t>(t * kFs);
    const char* phase = t < kCarrierOn ? "silence"
                        : t < kNodeOn  ? "carrier only"
                                       : "backscatter";
    bench::print_row({bench::fmt(t, 3), bench::fmt_sci(env[i]), phase});
  }

  // Quantify the two levels during backscatter (sample mid-state, away from
  // toggle edges).
  std::vector<double> hi, lo;
  for (int k = 0; k < 8; ++k) {
    const double t = kNodeOn + (static_cast<double>(k) + 0.5) * kToggleS;
    if (t >= kTotal - 0.05) break;
    const auto i = static_cast<std::size_t>(t * kFs);
    (k % 2 == 0 ? hi : lo).push_back(env[i]);
  }
  const double v_hi = mean(hi);
  const double v_lo = mean(lo);
  const double v_cw = env[static_cast<std::size_t>((kNodeOn - 0.1) * kFs)];
  std::printf("\ncarrier-only level: %.4e V\n", v_cw);
  std::printf("reflective level:   %.4e V\n", v_hi);
  std::printf("absorptive level:   %.4e V\n", v_lo);
  std::printf("modulation depth:   %.2f %% of carrier (paper: 'weaker than the\n"
              "constant wave transmitted by the projector')\n",
              100.0 * std::abs(v_hi - v_lo) / v_cw);
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "fig2_backscatter_signal";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "fig2_backscatter_signal";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 8;
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
