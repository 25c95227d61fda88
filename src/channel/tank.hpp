// Rectangular-tank geometry and image-method multipath.
//
// The paper's experiments ran in two enclosed tanks at the MIT Sea Grant:
//   Pool A: 3 m x 4 m cross-section, 1.3 m deep
//   Pool B: 1.2 m x 10 m cross-section, 1 m deep (a "corridor" which focuses
//           the projector's signal directionally - section 6.2)
// The image (mirror-source) method is the canonical model for such reverberant
// enclosures: each wall reflection is replaced by a mirrored virtual source.
#pragma once

#include <array>
#include <cmath>
#include <vector>

#include "channel/water.hpp"

namespace pab::channel {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  friend Vec3 operator-(const Vec3& a, const Vec3& b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend Vec3 operator+(const Vec3& a, const Vec3& b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend bool operator==(const Vec3&, const Vec3&) = default;
};

[[nodiscard]] inline double distance(const Vec3& a, const Vec3& b) {
  const Vec3 d = a - b;
  return std::sqrt(d.x * d.x + d.y * d.y + d.z * d.z);
}

// An enclosed rectangular tank: x in [0, size.x], y in [0, size.y],
// z in [0, size.z] with z = size.z the free surface.
struct Tank {
  Vec3 size{3.0, 4.0, 1.3};
  // Pressure reflection coefficients.
  double wall_reflection = 0.45;     // concrete/fiberglass walls (lossy)
  double bottom_reflection = 0.45;
  double surface_reflection = -0.95; // pressure-release air interface
  WaterProperties water{};

  [[nodiscard]] bool contains(const Vec3& p) const {
    return p.x >= 0 && p.x <= size.x && p.y >= 0 && p.y <= size.y && p.z >= 0 &&
           p.z <= size.z;
  }
};

// Pool A: 3 m x 4 m rectangular cross-section, 1.3 m depth.
[[nodiscard]] Tank make_pool_a();
// Pool B: 1.2 m x 10 m rectangular cross-section, 1 m depth.
[[nodiscard]] Tank make_pool_b();
// Indoor swimming pool (the paper also "validated that the system operates
// correctly in an indoor swimming pool", section 5.1d): 25 x 10 m, 2 m deep,
// tiled walls (more reflective than the test tanks).
[[nodiscard]] Tank make_swimming_pool();

// One propagation path (echo) between two points in the tank.
struct PathTap {
  double delay_s = 0.0;  // absolute propagation delay
  double gain = 0.0;     // signed amplitude gain (includes reflections, spreading, absorption)
  int order = 0;         // number of boundary bounces
};

// Image-method impulse response between `src` and `rx`, including paths with
// up to `max_order` boundary reflections per axis.  `freq_hz` sets the
// absorption term.  Taps are sorted by delay.
[[nodiscard]] std::vector<PathTap> image_method_taps(const Tank& tank, const Vec3& src,
                                                     const Vec3& rx, int max_order,
                                                     double freq_hz);

// Coherent narrowband channel gain at `freq_hz`: sum of taps as phasors.
// This is the |h| that governs CW energy delivery to a harvesting node.
[[nodiscard]] double coherent_gain(const std::vector<PathTap>& taps, double freq_hz);

// Free-field single tap (no boundaries) - used for open-water extrapolation.
[[nodiscard]] std::vector<PathTap> free_field_tap(const Vec3& src, const Vec3& rx,
                                                  double freq_hz,
                                                  const WaterProperties& water);

}  // namespace pab::channel
