// Energy-aware duty-cycle planning.
//
// A battery-free node can only spend what it harvests.  Given the harvest
// power at a deployment point and the energy cost of one query/response
// transaction, the planner answers the operational questions a deployment
// tool needs: is continuous operation sustainable, what is the maximum
// sustainable polling rate, and how long must the node recharge between
// transactions otherwise.
#pragma once

#include <cstddef>

#include "energy/mcu.hpp"
#include "util/error.hpp"

namespace pab::energy {

struct TransactionCost {
  std::size_t downlink_bits = 41;   // query frame
  double downlink_unit_s = 5e-3;    // PWM unit
  std::size_t uplink_bits = 76;     // response packet on air
  double uplink_bitrate = 1000.0;
  double sensing_energy_j = 50e-6;  // peripheral sampling
};

class EnergyPlanner {
 public:
  // Energy one full transaction costs the node [J].
  [[nodiscard]] double transaction_energy_j(const TransactionCost& cost) const;

  // True if `harvest_w` covers idle draw plus transactions at `rate_hz`.
  [[nodiscard]] bool sustainable(double harvest_w, const TransactionCost& cost,
                                 double rate_hz) const;

  // Maximum sustainable transaction rate [Hz]; 0 when even idling drains the
  // node (it then operates duty-cycled from cold starts).
  [[nodiscard]] double max_transaction_rate_hz(double harvest_w,
                                               const TransactionCost& cost) const;

  // Recharge time between transactions when operating below the idle
  // break-even: how long the capacitor must charge (from `harvest_w`, no
  // load) to bank one transaction's energy.  kInsufficientPower when the
  // node harvests nothing (it can never bank the energy); the success value
  // is always finite and positive.
  [[nodiscard]] pab::Expected<double> recharge_time_s(
      double harvest_w, const TransactionCost& cost) const;

  [[nodiscard]] const McuPowerModel& mcu() const { return mcu_; }

 private:
  McuPowerModel mcu_{};
};

}  // namespace pab::energy
