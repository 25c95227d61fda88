// Spatial index and gain-floor link culling for deployment-scale fields.
//
// A 1000-node field has ~500k node pairs; almost all of them are acoustically
// irrelevant because `path_amplitude_gain` falls monotonically with distance.
// The index buckets positions into a uniform grid so "every pair closer than
// r" is answerable by scanning the ceil(r/cell)-neighborhood of each point
// instead of all O(n^2) pairs.  Results are *exact*, not approximate: the
// grid only prunes candidates, the distance test decides -- so culling at the
// radius where the gain estimator crosses the configured floor is equivalent
// to brute-force pair enumeration by construction (the `channel.spatial_cull`
// audit invariant re-verifies this on random fields).
//
// Determinism: pair enumeration is in ascending lexicographic (i, j) order,
// independent of grid internals, so downstream consumers see a
// platform-stable link list.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "channel/tank.hpp"

namespace pab::channel {

struct CullStats {
  std::uint64_t total_pairs = 0;   // n * (n-1) / 2
  std::uint64_t kept_pairs = 0;
  std::uint64_t culled_pairs = 0;  // total - kept
};

class SpatialIndex {
 public:
  // Buckets `points` into a uniform grid of `cell_m`-sized cells.  The point
  // span is copied; cell_m must be positive.
  SpatialIndex(std::span<const Vec3> points, double cell_m);

  [[nodiscard]] std::size_t size() const { return points_.size(); }

  // Calls visit(i, j, d) for every pair i < j whose distance
  // d = channel::distance(p[i], p[j]) is at most `radius`, in ascending
  // lexicographic (i, j) order, and returns the number of pairs visited (none
  // for a negative or NaN radius).  This is the one pair enumeration:
  // cull_pairs collects what it visits.
  template <typename Visit>
  std::uint64_t for_each_pair_within(double radius, Visit&& visit) const;

 private:
  // Integer grid coordinate of a point (floor(p / cell) per axis).
  using CellKey = std::array<std::int64_t, 3>;
  // One occupied cell: its key and its members' range in members_.
  struct Cell {
    CellKey key;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // Every cell's neighbourhood within a radius: the members of the occupied
  // cells within reach, merged into one ascending list.  Cell c's list is
  // candidates[begin[c] .. begin[c + 1]), and cell_of maps a point to its
  // cell.
  struct Neighbourhoods {
    std::vector<std::uint32_t> cell_of;
    std::vector<std::size_t> begin;
    std::vector<std::uint32_t> candidates;
  };
  [[nodiscard]] Neighbourhoods neighbourhoods(double radius) const;

  // Ascending member indices of the cell at `key` (empty when unoccupied).
  [[nodiscard]] std::span<const std::uint32_t> members_of(const CellKey& key) const;
  // Calls visit(members) for every occupied cell within `reach` cells of
  // `key` along each axis, in grid order.
  template <typename Visit>
  void for_each_cell_near(const CellKey& key, std::int64_t reach,
                          Visit&& visit) const {
    for (std::int64_t dx = -reach; dx <= reach; ++dx)
      for (std::int64_t dy = -reach; dy <= reach; ++dy)
        for (std::int64_t dz = -reach; dz <= reach; ++dz) {
          const std::span<const std::uint32_t> members =
              members_of(CellKey{key[0] + dx, key[1] + dy, key[2] + dz});
          if (!members.empty()) visit(members);
        }
  }

  std::vector<Vec3> points_;
  double cell_m_;
  // Occupied cells sorted by key, so a lookup is a binary search and every
  // walk is deterministic; members_ holds each cell's indices contiguously,
  // ascending within the cell.
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> members_;
};

template <typename Visit>
std::uint64_t SpatialIndex::for_each_pair_within(double radius,
                                                 Visit&& visit) const {
  if (!(radius >= 0.0)) return 0;
  // Each cell's neighbourhood is resolved once, not once per point, and is
  // ascending, so the kept pairs of a point come out in j order.
  const Neighbourhoods near = neighbourhoods(radius);
  std::uint64_t visited = 0;
  for (std::uint32_t i = 0; i < points_.size(); ++i) {
    // Each pair is tested once, from its lower index.
    const Vec3& p = points_[i];
    const auto first = near.candidates.begin() + near.begin[near.cell_of[i]];
    const auto last = near.candidates.begin() + near.begin[near.cell_of[i] + 1];
    for (auto j = std::upper_bound(first, last, i); j != last; ++j) {
      const double d = distance(p, points_[*j]);
      if (d <= radius) {
        visit(i, *j, d);
        ++visited;
      }
    }
  }
  return visited;
}

// Largest distance whose one-way amplitude gain still reaches `gain_floor`
// at `freq_hz` (bisection over the monotone-decreasing gain; the returned
// radius is rounded *up* so a link exactly at the floor is never culled).
// Returns `max_radius_m` if the gain never falls below the floor within it.
[[nodiscard]] double cull_radius_m(double gain_floor, double freq_hz,
                                   double max_radius_m = 1.0e5);

// Every pair (i < j) with distance <= radius, ascending lexicographic order:
// the pairs SpatialIndex::for_each_pair_within visits, collected.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> cull_pairs(
    const SpatialIndex& index, double radius, CullStats* stats = nullptr);

}  // namespace pab::channel
