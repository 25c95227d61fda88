#include "channel/spatial.hpp"

#include <algorithm>
#include <cmath>

#include "channel/water.hpp"
#include "util/error.hpp"

namespace pab::channel {

namespace {

std::int64_t cell_coord(double v, double cell_m) {
  return static_cast<std::int64_t>(std::floor(v / cell_m));
}

}  // namespace

SpatialIndex::SpatialIndex(std::span<const Vec3> points, double cell_m)
    : points_(points.begin(), points.end()), cell_m_(cell_m) {
  require(cell_m > 0.0, "SpatialIndex: cell size must be positive");
  std::vector<CellKey> key_of(points_.size());
  members_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Vec3& p = points_[i];
    key_of[i] = {cell_coord(p.x, cell_m_), cell_coord(p.y, cell_m_),
                 cell_coord(p.z, cell_m_)};
    members_[i] = static_cast<std::uint32_t>(i);
  }
  // Stable: members stay ascending within each cell.
  std::stable_sort(members_.begin(), members_.end(),
                   [&key_of](std::uint32_t a, std::uint32_t b) {
                     return key_of[a] < key_of[b];
                   });
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    const CellKey& key = key_of[members_[m]];
    if (cells_.empty() || cells_.back().key != key)
      cells_.push_back(Cell{key, m, m});
    ++cells_.back().end;
  }
}

std::span<const std::uint32_t> SpatialIndex::members_of(
    const CellKey& key) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), key,
      [](const Cell& c, const CellKey& k) { return c.key < k; });
  if (it == cells_.end() || it->key != key) return {};
  return {members_.data() + it->begin, it->end - it->begin};
}

double cull_radius_m(double gain_floor, double freq_hz, double max_radius_m) {
  require(gain_floor > 0.0, "cull_radius_m: gain floor must be positive");
  require(max_radius_m > 0.0, "cull_radius_m: max radius must be positive");
  if (path_amplitude_gain(max_radius_m, freq_hz) >= gain_floor)
    return max_radius_m;
  // path_amplitude_gain is monotone decreasing in distance, so bisect for
  // the crossing and keep the upper bracket (never cull a link at the floor).
  double lo = 1.0e-3, hi = max_radius_m;
  if (path_amplitude_gain(lo, freq_hz) < gain_floor) return lo;
  for (int iter = 0; iter < 200 && (hi - lo) > 1.0e-6; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (path_amplitude_gain(mid, freq_hz) >= gain_floor)
      lo = mid;
    else
      hi = mid;
  }
  return hi;
}

SpatialIndex::Neighbourhoods SpatialIndex::neighbourhoods(double radius) const {
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_m_));
  Neighbourhoods near;
  near.cell_of.resize(points_.size());
  near.begin.assign(cells_.size() + 1, 0);
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    for (std::uint32_t m = cell.begin; m < cell.end; ++m)
      near.cell_of[members_[m]] = static_cast<std::uint32_t>(c);
    for_each_cell_near(cell.key, reach,
                       [&near](std::span<const std::uint32_t> members) {
                         near.candidates.insert(near.candidates.end(),
                                                members.begin(), members.end());
                       });
    std::sort(near.candidates.begin() + near.begin[c], near.candidates.end());
    near.begin[c + 1] = near.candidates.size();
  }
  return near;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> cull_pairs(
    const SpatialIndex& index, double radius, CullStats* stats) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> kept;
  index.for_each_pair_within(
      radius, [&kept](std::uint32_t i, std::uint32_t j, double) {
        kept.emplace_back(i, j);
      });
  if (stats != nullptr) {
    const std::size_t n = index.size();
    stats->total_pairs = static_cast<std::uint64_t>(n) * (n - (n > 0 ? 1 : 0)) / 2;
    stats->kept_pairs = kept.size();
    stats->culled_pairs = stats->total_pairs - stats->kept_pairs;
  }
  return kept;
}

}  // namespace pab::channel
