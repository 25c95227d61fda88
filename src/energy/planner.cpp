#include "energy/planner.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pab::energy {

double EnergyPlanner::transaction_energy_j(const TransactionCost& cost) const {
  require(cost.uplink_bitrate > 0.0, "planner: uplink bitrate must be positive");
  const double decode_j =
      mcu_.decode_energy_j(cost.downlink_bits, cost.downlink_unit_s);
  const double uplink_s =
      static_cast<double>(cost.uplink_bits) / cost.uplink_bitrate;
  const double backscatter_j =
      mcu_.backscatter_power_w(cost.uplink_bitrate) * uplink_s;
  return decode_j + backscatter_j + cost.sensing_energy_j;
}

bool EnergyPlanner::sustainable(double harvest_w, const TransactionCost& cost,
                                double rate_hz) const {
  require(rate_hz >= 0.0, "planner: negative rate");
  const double demand =
      mcu_.idle_power_w() + rate_hz * transaction_energy_j(cost);
  return harvest_w >= demand;
}

double EnergyPlanner::max_transaction_rate_hz(double harvest_w,
                                              const TransactionCost& cost) const {
  const double margin = harvest_w - mcu_.idle_power_w();
  if (margin <= 0.0) return 0.0;
  return margin / transaction_energy_j(cost);
}

pab::Expected<double> EnergyPlanner::recharge_time_s(
    double harvest_w, const TransactionCost& cost) const {
  if (harvest_w <= 0.0)
    return pab::Error{pab::ErrorCode::kInsufficientPower,
                      "recharge_time_s: no harvest power"};
  return transaction_energy_j(cost) / harvest_w;
}

}  // namespace pab::energy
