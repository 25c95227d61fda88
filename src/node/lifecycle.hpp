// Timeline-driven node lifecycle: cold-start, duty cycle, brownout/recover.
//
// A battery-free node's availability is an *energy* trajectory: it boots when
// the supercapacitor crosses the power-up threshold, draws its idle load
// while listening, and browns out mid-round if harvesting dips (paper
// section 4.2) -- then rejoins the inventory once recharged.  NodeLifecycle
// expresses that trajectory as self-rescheduling tick events on the shared
// sim::Timeline: each tick integrates the harvester over the elapsed
// interval at the *event's* timestamp (so the harvest power can be sampled
// from a time-varying channel), books the joules into the node's
// EnergyLedger, mirrors them into the timeline event log ("energy.harvested",
// "energy.idle"), and logs "node.power_up" / "node.brownout" markers (value =
// node id) on state transitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>

#include "energy/harvester.hpp"
#include "energy/ledger.hpp"
#include "sim/timeline.hpp"

namespace pab::node {

// The Timeline label that mirrors an energy::Category's joules:
// "energy.<to_string(c)>".  tick() posts two of them; the audit's ledger
// mirror posts all six and re-derives the ledger from them.
[[nodiscard]] constexpr sim::TimelineLabel energy_label(energy::Category c) {
  constexpr sim::TimelineLabel kLabels[] = {
      "energy.harvested",   "energy.idle",    "energy.decode",
      "energy.backscatter", "energy.sensing", "energy.leakage"};
  static_assert(std::size(kLabels) ==
                static_cast<std::size_t>(energy::Category::kCount));
  return kLabels[static_cast<std::size_t>(c)];
}

struct LifecycleConfig {
  double tick_s = 0.01;        // harvest integration step
  double idle_load_w = 124e-6; // MCU idle draw once powered (paper 6.4)
  double v_ceiling = 5.0;      // rectifier open-circuit voltage
  // Harvested DC power [W] as a function of simulated time.  Sampled at each
  // tick's fire time, which is how channel fading / node motion perturbs the
  // energy trajectory mid-round.
  std::function<double(double t)> harvest_power_w;
};

class NodeLifecycle {
 public:
  NodeLifecycle(std::uint8_t id, energy::Harvester harvester,
                LifecycleConfig config);

  // Schedule this lifecycle's tick events on `timeline` from now() until
  // `until_s` (absolute).  The lifecycle object must outlive the timeline
  // run.  May only be attached once.
  void attach(sim::Timeline& timeline, double until_s);

  [[nodiscard]] std::uint8_t id() const { return id_; }
  [[nodiscard]] bool powered() const { return harvester_.powered_up(); }
  [[nodiscard]] double capacitor_voltage() const {
    return harvester_.capacitor_voltage();
  }
  [[nodiscard]] const energy::Harvester& harvester() const {
    return harvester_;
  }
  [[nodiscard]] std::size_t power_ups() const { return power_ups_; }
  [[nodiscard]] std::size_t brown_outs() const { return brown_outs_; }

 private:
  void tick(sim::Timeline& timeline);

  std::uint8_t id_;
  energy::Harvester harvester_;
  LifecycleConfig config_;
  double until_s_ = 0.0;
  bool attached_ = false;
  std::size_t power_ups_ = 0;
  std::size_t brown_outs_ = 0;
};

}  // namespace pab::node
