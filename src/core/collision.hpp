// Concurrent-transmission (collision) simulation and MIMO decoding -- the
// experiment of paper section 6.3 / Fig. 10.
//
// Two recto-piezos (e.g. 15 and 18 kHz) backscatter simultaneously while the
// projector transmits both carriers.  Because backscatter is
// frequency-agnostic, each node modulates both carriers; the hydrophone
// down-converts at both frequencies, estimates the 2x2 channel from staggered
// training sections, and zero-forces to separate the streams.
#pragma once

#include <array>
#include <memory>

#include "channel/tapcache.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/link.hpp"
#include "core/projector.hpp"
#include "core/setup.hpp"
#include "phy/mimo.hpp"

namespace pab::core {

struct CollisionRunConfig {
  std::array<double, 2> carriers_hz{15000.0, 18000.0};
  double bitrate = 250.0;
  std::size_t training_bits = 24;  // per-node staggered training
  std::size_t payload_bits = 96;   // concurrent payload section
};

struct CollisionRunResult {
  // SINR [dB] of each node's stream before and after zero-forcing.
  std::array<double, 2> sinr_before_db{};
  std::array<double, 2> sinr_after_db{};
  double condition_number = 0.0;   // of the estimated channel matrix
  phy::Mat2c channel;              // estimated H
  // Bit error rates of the concurrent payloads after ZF decoding.
  std::array<double, 2> ber_after{};
};

class CollisionSimulator {
 public:
  // `node_positions` places the two nodes in the tank; the projector and
  // hydrophone come from `placement`.
  CollisionSimulator(SimConfig config, Placement placement,
                     channel::Vec3 second_node_position);

  // Training chips, payloads and noise are all drawn from `rng`.
  [[nodiscard]] CollisionRunResult run(const Projector& projector,
                                       const circuit::RectoPiezo& node1,
                                       const circuit::RectoPiezo& node2,
                                       const CollisionRunConfig& cfg,
                                       pab::Rng& rng) const;

 private:
  SimConfig config_;
  Placement placement_;
  channel::Vec3 node2_pos_;
  std::shared_ptr<channel::TapCache> tap_cache_;
};

}  // namespace pab::core
