#include "channel/tank.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::channel {

Tank make_pool_a() {
  Tank t;
  t.size = {3.0, 4.0, 1.3};
  return t;
}

Tank make_pool_b() {
  Tank t;
  t.size = {1.2, 10.0, 1.0};
  return t;
}

Tank make_swimming_pool() {
  Tank t;
  t.size = {10.0, 25.0, 2.0};
  t.wall_reflection = 0.6;    // tiled concrete
  t.bottom_reflection = 0.6;
  return t;
}

namespace {

// Mirror coordinate of `p` for image index m along an axis of length L.
// Even m: p + mL (same orientation); odd m: -p + (m+1)L.  This enumerates the
// standard 1-D lattice of image sources for two parallel reflecting planes.
double image_coord(double p, int m, double length) {
  if (m % 2 == 0) return p + static_cast<double>(m) * length;
  return -p + static_cast<double>(m + 1) * length;
}

// Number of bounces off the "low" (index even) and "high" planes for image m.
// For the 1-D lattice, image m corresponds to |m| bounces total, alternating
// between the two planes; which plane is hit first depends on sign.
int bounce_count(int m) { return std::abs(m); }

// Reflection-coefficient product along one axis given per-plane coefficients.
double axis_reflection(int m, double low_coeff, double high_coeff) {
  // Walking the image lattice: a positive m alternates high, low, high, ...
  // and a negative m alternates low, high, low, ...  For equal coefficients
  // this reduces to coeff^|m| exactly; for unequal ones this assignment is
  // the standard image-method bookkeeping.
  double r = 1.0;
  int n = std::abs(m);
  bool high_first = m > 0;
  for (int i = 0; i < n; ++i) {
    r *= (high_first == (i % 2 == 0)) ? high_coeff : low_coeff;
  }
  return r;
}

}  // namespace

std::vector<PathTap> image_method_taps(const Tank& tank, const Vec3& src,
                                       const Vec3& rx, int max_order,
                                       double freq_hz) {
  require(max_order >= 0, "image_method_taps: negative order");
  require(tank.contains(src) && tank.contains(rx),
          "image_method_taps: endpoints must lie inside the tank");

  const double c = sound_speed_mackenzie(tank.water);
  std::vector<PathTap> taps;
  for (int mx = -max_order; mx <= max_order; ++mx) {
    for (int my = -max_order; my <= max_order; ++my) {
      for (int mz = -max_order; mz <= max_order; ++mz) {
        const int order = bounce_count(mx) + bounce_count(my) + bounce_count(mz);
        if (order > max_order) continue;
        const Vec3 img{image_coord(src.x, mx, tank.size.x),
                       image_coord(src.y, my, tank.size.y),
                       image_coord(src.z, mz, tank.size.z)};
        const double d = distance(img, rx);
        if (d < 1e-6) continue;  // coincident points: skip degenerate tap
        double r = axis_reflection(mx, tank.wall_reflection, tank.wall_reflection) *
                   axis_reflection(my, tank.wall_reflection, tank.wall_reflection) *
                   axis_reflection(mz, tank.bottom_reflection, tank.surface_reflection);
        const double gain = r * path_amplitude_gain(d, freq_hz);
        taps.push_back({d / c, gain, order});
      }
    }
  }
  std::sort(taps.begin(), taps.end(),
            [](const PathTap& a, const PathTap& b) { return a.delay_s < b.delay_s; });
  return taps;
}

double coherent_gain(const std::vector<PathTap>& taps, double freq_hz) {
  std::complex<double> h{};
  for (const PathTap& t : taps)
    h += t.gain * std::exp(std::complex<double>(0.0, -kTwoPi * freq_hz * t.delay_s));
  return std::abs(h);
}

std::vector<PathTap> free_field_tap(const Vec3& src, const Vec3& rx, double freq_hz,
                                    const WaterProperties& water) {
  const double d = std::max(distance(src, rx), 1e-6);
  const double c = sound_speed_mackenzie(water);
  return {PathTap{d / c, path_amplitude_gain(d, freq_hz), 0}};
}

}  // namespace pab::channel
