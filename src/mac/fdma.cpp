#include "mac/fdma.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pab::mac {

ChannelPlan plan_channels(std::size_t n_nodes) {
  require(n_nodes >= 1, "plan_channels: need at least one node");
  constexpr double kBandLowHz = 15000.0;
  constexpr double kBandHighHz = 18000.0;
  constexpr double kMinSpacingHz = 2500.0;

  const double band = kBandHighHz - kBandLowHz;
  const auto max_channels =
      static_cast<std::size_t>(std::floor(band / kMinSpacingHz)) + 1;
  // Over-subscription is a structured result, not an error: plan as many
  // distinct channels as the band holds and report the reuse factor the
  // caller needs to cover the surplus (zoned spatial reuse or sequential
  // rounds).  Within capacity the historical one-carrier-per-node plan is
  // reproduced exactly.
  const std::size_t distinct = std::min(n_nodes, max_channels);

  ChannelPlan plan;
  plan.requested = n_nodes;
  plan.reuse_factor = (n_nodes + distinct - 1) / distinct;
  if (distinct == 1) {
    plan.carriers_hz.push_back(0.5 * (kBandLowHz + kBandHighHz));
    return plan;
  }
  // Spread across the band edge-to-edge.
  const double step = band / static_cast<double>(distinct - 1);
  for (std::size_t i = 0; i < distinct; ++i)
    plan.carriers_hz.push_back(kBandLowHz + step * static_cast<double>(i));
  return plan;
}

double rejection_db(const RejectionMask& mask, double tx_hz, double rx_hz) {
  require(mask.passband_hz >= 0.0, "rejection_db: negative passband");
  require(mask.slope_db_per_khz >= 0.0, "rejection_db: negative slope");
  require(mask.floor_db >= 0.0, "rejection_db: negative floor");
  const double delta = std::abs(tx_hz - rx_hz);
  if (delta <= mask.passband_hz) return 0.0;
  const double skirt =
      mask.slope_db_per_khz * (delta - mask.passband_hz) / 1000.0;
  return std::min(skirt, mask.floor_db);
}

double rejection_power_factor(const RejectionMask& mask, double tx_hz,
                              double rx_hz) {
  return std::pow(10.0, -0.1 * rejection_db(mask, tx_hz, rx_hz));
}

std::vector<std::vector<double>> crosstalk_matrix(const ChannelPlan& plan,
                                                  double mechanical_resonance_hz) {
  const std::size_t n = plan.channels();
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  std::vector<circuit::RectoPiezo> nodes;
  nodes.reserve(n);
  for (double f : plan.carriers_hz)
    nodes.push_back(circuit::make_recto_piezo(f, mechanical_resonance_hz));

  for (std::size_t j = 0; j < n; ++j) {
    const double on_channel = nodes[j].modulation_depth(plan.carriers_hz[j]);
    for (std::size_t i = 0; i < n; ++i) {
      const double depth = nodes[j].modulation_depth(plan.carriers_hz[i]);
      m[i][j] = on_channel > 0.0 ? depth / on_channel : 0.0;
    }
  }
  return m;
}

double fdma_throughput_bps(std::size_t n, double per_link_bps) {
  require(per_link_bps >= 0.0, "fdma_throughput: negative rate");
  return static_cast<double>(n) * per_link_bps;
}

double tdma_throughput_bps(std::size_t n, double per_link_bps) {
  require(n >= 1, "tdma_throughput: need at least one node");
  return per_link_bps;  // one node transmits at a time; aggregate = link rate
}

}  // namespace pab::mac
