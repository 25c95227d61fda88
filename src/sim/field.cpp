#include "sim/field.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pab::sim {

namespace {

// Minimum clearance between any generated node and the region boundary [m],
// so generated fields always sit strictly inside the tank that hosts them.
constexpr double kBoundaryMarginM = 1.0;

double clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

double FieldSpec::extent_m() const {
  const double population_d = static_cast<double>(population == 0 ? 1 : population);
  const double side = std::sqrt(population_d * area_per_node_m2);
  // Always leave room for the boundary margin on both sides.
  return std::max(side, 4.0 * kBoundaryMarginM);
}

NodeField::NodeField()
    : positions_{channel::Vec3{1.6, 2.2, 0.65}}, front_ends_{FrontEndSpec{}} {}

NodeField NodeField::empty() {
  NodeField f;
  f.clear();
  return f;
}

NodeField NodeField::single(const channel::Vec3& position,
                            const FrontEndSpec& spec) {
  NodeField f = empty();
  f.push_back(position, spec);
  return f;
}

NodeField NodeField::from_nodes(std::vector<channel::Vec3> positions,
                                std::vector<FrontEndSpec> specs) {
  require(positions.size() == specs.size(),
          "NodeField::from_nodes: positions/specs size mismatch");
  NodeField f = empty();
  f.positions_ = std::move(positions);
  f.front_ends_ = std::move(specs);
  return f;
}

NodeField NodeField::generate(const FieldSpec& spec) {
  require(spec.layout != FieldLayout::kExplicit,
          "NodeField::generate: kExplicit fields are hand-placed, not generated");
  require(spec.population > 0, "NodeField::generate: population must be > 0");
  require(spec.area_per_node_m2 > 0.0,
          "NodeField::generate: area_per_node_m2 must be > 0");
  require(spec.depth_m > 2.0 * kBoundaryMarginM,
          "NodeField::generate: depth too shallow for boundary margin");

  const double extent = spec.extent_m();
  const double lo = kBoundaryMarginM;
  const double hi = extent - kBoundaryMarginM;
  const double z_lo = kBoundaryMarginM;
  const double z_hi = spec.depth_m - kBoundaryMarginM;
  const std::size_t n = static_cast<std::size_t>(spec.population);

  NodeField f = empty();
  switch (spec.layout) {
    case FieldLayout::kGrid: {
      // Square lattice: ceil(sqrt(n)) columns, row-major, nodes at mid-depth.
      const std::size_t cols = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      const std::size_t rows = (n + cols - 1) / cols;
      const double z = clamp(0.5 * spec.depth_m, z_lo, z_hi);
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t r = j / cols;
        const std::size_t c = j % cols;
        // Cell centers of a cols x rows partition of the usable square.
        const double x =
            lo + (hi - lo) * (static_cast<double>(c) + 0.5) / static_cast<double>(cols);
        const double y =
            lo + (hi - lo) * (static_cast<double>(r) + 0.5) / static_cast<double>(rows);
        f.push_back({x, y, z}, spec.front_end);
      }
      break;
    }
    case FieldLayout::kRandom: {
      Rng rng(spec.seed);
      for (std::size_t j = 0; j < n; ++j) {
        const double x = rng.uniform(lo, hi);
        const double y = rng.uniform(lo, hi);
        const double z = rng.uniform(z_lo, z_hi);
        f.push_back({x, y, z}, spec.front_end);
      }
      break;
    }
    case FieldLayout::kClusters: {
      require(spec.clusters > 0, "NodeField::generate: clusters must be > 0");
      Rng rng(spec.seed);
      std::vector<channel::Vec3> centers;
      centers.reserve(static_cast<std::size_t>(spec.clusters));
      for (std::uint64_t c = 0; c < spec.clusters; ++c) {
        centers.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi),
                           rng.uniform(z_lo, z_hi)});
      }
      // Round-robin membership keeps cluster sizes balanced and the draw
      // order independent of cluster count bookkeeping.
      for (std::size_t j = 0; j < n; ++j) {
        const channel::Vec3& c = centers[j % centers.size()];
        const double x = clamp(c.x + rng.gaussian(0.0, spec.cluster_spread_m), lo, hi);
        const double y = clamp(c.y + rng.gaussian(0.0, spec.cluster_spread_m), lo, hi);
        const double z =
            clamp(c.z + rng.gaussian(0.0, 0.25 * spec.cluster_spread_m), z_lo, z_hi);
        f.push_back({x, y, z}, spec.front_end);
      }
      break;
    }
    case FieldLayout::kExplicit:
      break;  // unreachable (require above)
  }
  return f;
}

void NodeField::push_back(const channel::Vec3& position, const FrontEndSpec& spec) {
  positions_.push_back(position);
  front_ends_.push_back(spec);
}

void NodeField::set_position(std::size_t j, const channel::Vec3& position) {
  positions_.at(j) = position;
}

void NodeField::clear() {
  positions_.clear();
  front_ends_.clear();
}

}  // namespace pab::sim
