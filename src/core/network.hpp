// Concurrent-transmission (collision) simulation and MIMO decoding for N
// nodes -- the experiment of paper section 6.3 / Fig. 10 at N = 2.
//
// N recto-piezos on an FDMA channel plan backscatter simultaneously while the
// projector transmits every carrier; the hydrophone down-converts at each
// carrier, estimates the NxN channel from staggered training sections, and
// zero-forces to separate the streams.  N > 2 explores the scaling question
// the paper raises in section 8 ("the gain from FDMA scales as the number of
// nodes with different resonance frequencies increases", limited by
// transducer bandwidth).
#pragma once

#include <memory>
#include <vector>

#include "channel/tapcache.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"
#include "core/setup.hpp"
#include "phy/matrix.hpp"
#include "sim/waveform.hpp"
#include "util/rng.hpp"

namespace pab::core {

struct NetworkRunResult {
  std::vector<double> sinr_before_db;  // per node, own-carrier readout
  std::vector<double> sinr_after_db;   // per node, after NxN zero-forcing
  std::vector<double> ber_after;       // per node
  double condition_number = 0.0;
  phy::CMatrix channel;
  // Aggregate goodput proxy: payload bits of nodes decoded below 1% BER over
  // the frame airtime.
  double aggregate_goodput_bps = 0.0;
};

class MultiNodeSimulator {
 public:
  MultiNodeSimulator(SimConfig config, channel::Vec3 projector,
                     channel::Vec3 hydrophone,
                     std::vector<channel::Vec3> node_positions);
  // Share an external tap cache (one per sim::Session).
  MultiNodeSimulator(SimConfig config, channel::Vec3 projector,
                     channel::Vec3 hydrophone,
                     std::vector<channel::Vec3> node_positions,
                     std::shared_ptr<channel::TapCache> tap_cache);

  // `front_ends` must match the node count; carriers come from `cfg`.  All
  // randomness (training chips, payloads, noise) is drawn from the explicit
  // `rng`, making the run a pure function of (scenario, rng state) -- the
  // property sim::BatchRunner's determinism guarantee rests on.
  [[nodiscard]] NetworkRunResult run(const Projector& projector,
                                     const std::vector<circuit::RectoPiezo>& front_ends,
                                     const sim::FdmaPlan& cfg,
                                     pab::Rng& rng) const;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

 private:
  SimConfig config_;
  channel::Vec3 projector_pos_;
  channel::Vec3 hydrophone_pos_;
  std::vector<channel::Vec3> nodes_;
  std::shared_ptr<channel::TapCache> tap_cache_;
};

}  // namespace pab::core
