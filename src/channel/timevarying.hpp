// Time-varying propagation: node mobility and surface motion.
//
// The paper's discussion (section 8) flags mobility and dynamic multipath as
// the challenges of moving from tanks to rivers/oceans.  This models the two
// dominant mechanisms:
//   - a moving endpoint (e.g. a tagged animal): the path delay changes with
//     time, producing Doppler shift and level change; and
//   - a heaving surface (waves): the surface-image path length oscillates,
//     producing time-varying multipath fading.
#pragma once

#include <span>

#include "channel/tank.hpp"
#include "dsp/signal.hpp"

namespace pab::channel {

// Linear-interpolated read of `x` at fractional sample position `pos`; zero
// outside [0, size).  Positions in the final interval [size-1, size)
// interpolate x[size-1] against an implicit zero-padding sample, so the tail
// of a delayed path decays instead of being truncated (a position where x[i]
// is valid must never read as silence).  Shared by the time-varying
// propagation drivers below and the src/check channel invariants.
[[nodiscard]] dsp::cplx sample_at(std::span<const dsp::cplx> x, double pos);

// Straight-line motion of the receive end relative to a fixed source in
// free field.  The output sample at time t is the input evaluated at
// t - tau(t) with carrier phase rotation -2 pi f_c tau(t); Doppler falls out
// naturally from the changing delay.
struct MovingPathConfig {
  Vec3 source{};
  Vec3 rx_start{};
  Vec3 rx_velocity{};  // [m/s]
  WaterProperties water{};
};

[[nodiscard]] dsp::BasebandSignal propagate_moving(const dsp::BasebandSignal& x,
                                                   const MovingPathConfig& cfg);

// --- Event-timestamp sampling ------------------------------------------------
// The discrete-event Timeline (sim/timeline.hpp) asks "what does the channel
// look like *now*?" at event timestamps rather than per baseband sample, so
// the instantaneous geometry/gain/Doppler accessors the propagation drivers
// use internally are public: a node lifecycle samples its harvest power from
// moving_path_gain_at at each tick, and a mid-round perturbation reads the
// same trajectory the sample-level drivers integrate.

// Receiver position at time t along the straight-line trajectory.
[[nodiscard]] Vec3 moving_position_at(const MovingPathConfig& cfg, double t);

// One-way amplitude path gain source->receiver at time t.
[[nodiscard]] double moving_path_gain_at(const MovingPathConfig& cfg,
                                         double carrier_hz, double t);

// Radial Doppler shift [Hz] at time t (positive when the range is closing).
[[nodiscard]] double doppler_shift_at(const MovingPathConfig& cfg,
                                      double carrier_hz, double t);

// Two-path (direct + surface image) channel where the surface heaves
// sinusoidally: z_surface(t) = z0 + A sin(2 pi f_w t).  Produces the periodic
// fading a backscatter link sees under waves.
struct WavySurfaceConfig {
  Vec3 source{};
  Vec3 receiver{};
  double surface_z = 1.0;       // mean surface height [m]
  double wave_amplitude = 0.05; // [m]
  double wave_freq_hz = 0.5;    // swell frequency
  double surface_reflection = -0.95;
  WaterProperties water{};
};

[[nodiscard]] dsp::BasebandSignal propagate_wavy(const dsp::BasebandSignal& x,
                                                 const WavySurfaceConfig& cfg);

// Coherent |direct + surface-image| amplitude gain with the surface at swell
// phase `phase`, in cycles: z_surface = z0 + A sin(2 pi phase).  At time t
// the phase is wave_freq_hz * t.
[[nodiscard]] double wavy_gain_at(const WavySurfaceConfig& cfg,
                                  double carrier_hz, double phase);

// Envelope fade depth [dB] between the strongest and weakest coherent sum of
// direct + surface paths over one wave period.
[[nodiscard]] double fade_depth_db(const WavySurfaceConfig& cfg, double carrier_hz);

}  // namespace pab::channel
