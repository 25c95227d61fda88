// Experiment setup: tank, geometry, sampling, and noise configuration.
#pragma once

#include "channel/noise.hpp"
#include "channel/tank.hpp"
#include "piezo/transducer.hpp"

namespace pab::core {

// Positions of the three instruments inside the tank [m].  Defaults place
// everything at mid-depth in Pool A, about a meter apart (the paper's
// throughput experiments keep the node "within a meter of both the projector
// and the hydrophone", section 6.1b).
struct Placement {
  channel::Vec3 projector{0.5, 0.8, 0.65};
  channel::Vec3 hydrophone{0.8, 1.6, 0.65};
  channel::Vec3 node{1.6, 2.2, 0.65};
};

struct SimConfig {
  channel::Tank tank = channel::make_pool_a();
  double sample_rate = 96000.0;   // hydrophone capture rate [Hz]
  int max_image_order = 2;        // image-method reflection order
  bool use_image_method = true;   // false = free field (open water)
  channel::NoiseModel noise = channel::tank_noise();
  piezo::Hydrophone hydrophone{};
  // Sample-clock offset of the recording sound card [ppm].  The projector
  // and hydrophone run on different oscillators (paper footnote 12), so the
  // capture is resampled by (1 + ppm*1e-6), which shows up as a carrier
  // frequency offset of f_c * ppm * 1e-6 after down-conversion.
  double receiver_clock_offset_ppm = 0.0;
  // Base seed of a run's randomness.  No simulator reads it (each run method
  // takes a pab::Rng); sim::Session derives its trial streams from it, and
  // programs that drive a simulator directly seed their noise with it.
  std::uint64_t seed = 42;
};

// For tank presets use sim::Scenario::pool_a() / pool_b() / swimming_pool()
// (sim/scenario.hpp) and take the `.medium` member: the old
// pool_a_config()-style free functions were removed once every caller
// migrated to the scenario presets.

}  // namespace pab::core
