// Ablation (paper section 4.1): transducer construction and front-end
// matching choices.
//
// 1. Air-backed, end-capped vs fully-potted: "we also experimented with
//    fully-potted (i.e., non-air-backed) designs, but noticed that these
//    designs had poorer sensitivity and energy harvesting efficiency".
// 2. Matched vs unmatched front end: the impedance-matching network is what
//    maximizes both harvested power and backscatter SNR (section 3.2).
#include <cmath>

#include "bench_util.hpp"
#include "circuit/matching.hpp"
#include "circuit/rectopiezo.hpp"
#include "piezo/transducer.hpp"
#include "util/units.hpp"

namespace {

using namespace pab;

constexpr double kCarrier = 15000.0;
constexpr double kIncident = 80.0;  // [Pa]

// Fully-potted: polyurethane fills the bore, loading the resonator -- lower
// electroacoustic efficiency and a damped, detuned resonance.
piezo::Transducer make_potted_transducer() {
  const auto bvd = piezo::synthesize_bvd(15800.0, /*q=*/2.0, 8e-9, /*keff=*/0.24,
                                         /*eta_ea=*/0.35);
  return piezo::Transducer(bvd, 2.0 * kPi * 0.025 * 0.04, 1.48e6,
                           "potted-cylinder");
}

void print_series() {
  bench::print_header("Ablation: transducer & matching",
                      "Air-backed vs fully-potted; matched vs unmatched");

  // --- Construction ---------------------------------------------------------
  circuit::RectoPiezoConfig cfg;
  cfg.match_frequency_hz = kCarrier;
  const circuit::RectoPiezo air(piezo::make_node_transducer(), cfg);
  // Potting also damps the re-radiated wave.
  circuit::RectoPiezoConfig potted_cfg = cfg;
  potted_cfg.scatter_efficiency = 0.3;
  const circuit::RectoPiezo potted(make_potted_transducer(), potted_cfg);

  bench::print_row({"construction", "OCV@15k [dB]", "Vrect [V]",
                    "harvest [uW]", "mod. depth"});
  for (const auto* rp : {&air, &potted}) {
    bench::print_row(
        {rp->transducer().name(),
         bench::fmt(rp->transducer().ocv_sensitivity_db(kCarrier), 1),
         bench::fmt(rp->rectified_open_voltage(kCarrier, kIncident), 2),
         bench::fmt(rp->harvested_dc_power(kCarrier, kIncident) * 1e6, 1),
         bench::fmt_sci(rp->modulation_depth(kCarrier))});
  }
  const double harvest_ratio =
      air.harvested_dc_power(kCarrier, kIncident) /
      std::max(potted.harvested_dc_power(kCarrier, kIncident), 1e-12);
  std::printf("\nair-backed harvests %.1fx more than fully-potted "
              "(paper: air-backed chosen for its higher efficiency)\n\n",
              harvest_ratio);

  // --- Matching --------------------------------------------------------------
  const auto xdcr = piezo::make_node_transducer();
  const auto zs = xdcr.thevenin_impedance(kCarrier);
  const double v_th = xdcr.thevenin_voltage(kIncident, kCarrier);
  const circuit::cplx r_load(100000.0, 0.0);

  const auto matched = circuit::MatchingNetwork::design(zs, r_load.real(), kCarrier);
  const auto none = circuit::MatchingNetwork::none();
  const double p_matched =
      v_th * v_th / (8.0 * zs.real()) * matched.power_transfer(kCarrier, zs, r_load);
  const double p_unmatched =
      v_th * v_th / (8.0 * zs.real()) * none.power_transfer(kCarrier, zs, r_load);

  bench::print_row({"front end", "delivered [uW]", "of available"});
  bench::print_row({"L-matched", bench::fmt(p_matched * 1e6, 1),
                    bench::fmt(100.0 * matched.power_transfer(kCarrier, zs, r_load), 1) + "%"});
  bench::print_row({"unmatched", bench::fmt(p_unmatched * 1e6, 1),
                    bench::fmt(100.0 * none.power_transfer(kCarrier, zs, r_load), 1) + "%"});
  std::printf("\nmatching gain: %.1fx delivered power (ZL = Zs* maximizes both\n"
              "harvest and backscatter SNR, section 3.2)\n",
              p_matched / std::max(p_unmatched, 1e-12));
}

}  // namespace

int main(int argc, char** argv) {
  pab::bench::BenchSpec spec;
  spec.name = "ablation_transducer";
  spec.print_series = print_series;
  pab::campaign::CampaignSpec sweep;
  sweep.name = "ablation_transducer";
  sweep.kind = pab::sim::TrialKind::kUplink;
  sweep.preset = "pool_a";
  sweep.trials_per_point = 12;
  sweep.axes.push_back({"waveform.carrier_hz", {12500.0, 15000.0, 17500.0}});
  spec.campaign = std::move(sweep);
  return pab::bench::run_bench_main(argc, argv, spec);
}
