#include "node/lifecycle.hpp"

#include "sim/timeline.hpp"
#include "util/error.hpp"

namespace pab::node {

NodeLifecycle::NodeLifecycle(std::uint8_t id, energy::Harvester harvester,
                             LifecycleConfig config)
    : id_(id), harvester_(std::move(harvester)), config_(std::move(config)) {
  require(config_.tick_s > 0.0, "NodeLifecycle: tick must be positive");
  require(config_.idle_load_w >= 0.0, "NodeLifecycle: negative idle load");
  require(static_cast<bool>(config_.harvest_power_w),
          "NodeLifecycle: harvest_power_w is required");
}

void NodeLifecycle::attach(sim::Timeline& timeline, double until_s) {
  require(!attached_, "NodeLifecycle: already attached");
  require(until_s >= timeline.now(), "NodeLifecycle: horizon in the past");
  attached_ = true;
  until_s_ = until_s;
  // First tick fires immediately: it integrates [now, now + tick).
  timeline.schedule_at(timeline.now(), "node.tick",
                       [this](sim::Timeline& tl) { tick(tl); }, config_.tick_s);
}

void NodeLifecycle::tick(sim::Timeline& timeline) {
  const double t = timeline.now();
  const double p = config_.harvest_power_w(t);
  const auto step = harvester_.step(config_.tick_s, p, config_.idle_load_w,
                                    config_.v_ceiling);
  // Mirror exactly what the ledger booked into the event log so the audit's
  // reconstruction ("energy.<category>" entries summed in log order) matches
  // the live ledger bit for bit.
  if (step.harvested_j > 0.0)
    timeline.charge("energy.harvested", step.harvested_j);
  if (step.consumed_j > 0.0) timeline.charge("energy.idle", step.consumed_j);
  if (step.event == energy::PowerEvent::kPowerUp) {
    ++power_ups_;
    timeline.charge("node.power_up", static_cast<double>(id_));
  } else if (step.event == energy::PowerEvent::kBrownOut) {
    ++brown_outs_;
    timeline.charge("node.brownout", static_cast<double>(id_));
  }
  if (t + config_.tick_s < until_s_) {
    timeline.schedule_in(config_.tick_s, "node.tick",
                         [this](sim::Timeline& tl) { tick(tl); },
                         config_.tick_s);
  }
}

}  // namespace pab::node
