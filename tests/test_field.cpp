// Deployment-scale node fields: the NodeField generators, the spatially
// culled link budget, the quantized tap cache, and the kField trial kind --
// including the determinism contract (bit-identical results and event logs at
// any BatchRunner thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "channel/spatial.hpp"
#include "channel/tapcache.hpp"
#include "channel/water.hpp"
#include "mac/zones.hpp"
#include "sim/batch.hpp"
#include "sim/field.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"

namespace pab::sim {
namespace {

double dist(const channel::Vec3& a, const channel::Vec3& b) {
  return channel::distance(a, b);
}

FieldSpec spec_of(FieldLayout layout, std::uint64_t population,
                  std::uint64_t seed = 1) {
  FieldSpec s;
  s.layout = layout;
  s.population = population;
  s.seed = seed;
  return s;
}

// --- NodeField ---------------------------------------------------------------

TEST(NodeField, DefaultIsTheHistoricalTankNode) {
  const NodeField f;
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.position(0).x, 1.6);
  EXPECT_EQ(f.position(0).y, 2.2);
  EXPECT_EQ(f.position(0).z, 0.65);
  EXPECT_EQ(f.front_end(0), FrontEndSpec{});
}

TEST(NodeField, PairingInvariantHoldsThroughMutation) {
  NodeField f = NodeField::empty();
  EXPECT_EQ(f.size(), 0u);
  f.push_back({1.0, 2.0, 0.5}, FrontEndSpec{18000.0, 19500.0, 0.0});
  f.push_back({2.0, 2.0, 0.5});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.positions().size(), f.front_ends().size());
  const NodeView v = f.at(0);
  EXPECT_EQ(v.index, 0u);
  EXPECT_EQ(v.front_end.match_frequency_hz, 18000.0);
  f.set_position(1, {3.0, 3.0, 0.6});
  EXPECT_EQ(f.position(1).x, 3.0);
}

TEST(NodeField, FromNodesRequiresPairedSpans) {
  EXPECT_THROW((void)NodeField::from_nodes({{1, 1, 1}, {2, 2, 2}},
                                           {FrontEndSpec{}}),
               std::exception);
}

TEST(NodeField, GeneratorsHitThePopulationAndStayInBounds) {
  for (const FieldLayout layout :
       {FieldLayout::kGrid, FieldLayout::kRandom, FieldLayout::kClusters}) {
    const FieldSpec spec = spec_of(layout, 300);
    const NodeField f = NodeField::generate(spec);
    ASSERT_EQ(f.size(), 300u) << static_cast<int>(layout);
    const double extent = spec.extent_m();
    for (std::size_t j = 0; j < f.size(); ++j) {
      const auto& p = f.position(j);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, extent);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, extent);
      EXPECT_GE(p.z, 0.0);
      EXPECT_LE(p.z, spec.depth_m);
      EXPECT_EQ(f.front_end(j), spec.front_end);
    }
  }
}

TEST(NodeField, GenerationIsAPureFunctionOfTheSpec) {
  const FieldSpec spec = spec_of(FieldLayout::kRandom, 128, 42);
  EXPECT_EQ(NodeField::generate(spec), NodeField::generate(spec));
  FieldSpec other = spec;
  other.seed = 43;
  EXPECT_NE(NodeField::generate(spec), NodeField::generate(other));
}

TEST(NodeField, FieldSeedIsDecoupledFromTrialSeed) {
  // Sweeping the Monte-Carlo seed re-rolls noise, never geometry.
  const Scenario a = Scenario::open_water(spec_of(FieldLayout::kRandom, 64));
  const Scenario b = a.with_seed(a.medium.seed + 999);
  EXPECT_EQ(a.field, b.field);
}

TEST(NodeField, ConstantDensityKeepsSpacingFlatAcrossPopulations) {
  const FieldSpec small = spec_of(FieldLayout::kGrid, 100);
  const FieldSpec large = spec_of(FieldLayout::kGrid, 400);
  // 4x the population -> 4x the area -> 2x the side length.
  EXPECT_NEAR(large.extent_m() / small.extent_m(), 2.0, 1e-12);
}

TEST(NodeField, GenerateRejectsExplicitLayoutAndZeroPopulation) {
  EXPECT_THROW((void)NodeField::generate(spec_of(FieldLayout::kExplicit, 10)),
               std::exception);
  EXPECT_THROW((void)NodeField::generate(spec_of(FieldLayout::kGrid, 0)),
               std::exception);
}

// --- Scenario wiring ---------------------------------------------------------

TEST(OpenWaterScenario, SizesTheRegionAndCentersTheReader) {
  const FieldSpec spec = spec_of(FieldLayout::kRandom, 200);
  const Scenario s = Scenario::open_water(spec);
  EXPECT_EQ(s.node_count(), 200u);
  EXPECT_FALSE(s.medium.use_image_method);
  EXPECT_EQ(s.field_spec.layout, FieldLayout::kRandom);
  const double extent = spec.extent_m();
  EXPECT_NEAR(s.medium.tank.size.x, extent, 1e-12);
  EXPECT_NEAR(s.medium.tank.size.y, extent, 1e-12);
  EXPECT_NEAR(s.medium.tank.size.z, spec.depth_m, 1e-12);
  EXPECT_NEAR(s.reader.projector.x, extent / 2.0, 1e-12);
  // The legacy 3-point view is node 0 of the field, derived on demand.
  EXPECT_EQ(s.placement().node, s.node_position(0));
}

TEST(OpenWaterScenario, TankPresetsKeepTheirSingleAndDualNodeShapes) {
  EXPECT_EQ(Scenario::pool_a().node_count(), 1u);
  EXPECT_EQ(Scenario::pool_b().node_count(), 1u);
  EXPECT_EQ(Scenario::swimming_pool().node_count(), 1u);
  EXPECT_EQ(Scenario::pool_a_concurrent().node_count(), 2u);
}

// --- Spatial index and culling ----------------------------------------------

TEST(SpatialIndex, CullPairsIsExactAndConserved) {
  const NodeField f =
      NodeField::generate(spec_of(FieldLayout::kClusters, 180, 11));
  const auto& pts = f.positions();
  const double radius = 40.0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    for (std::uint32_t j = i + 1; j < pts.size(); ++j)
      if (dist(pts[i], pts[j]) <= radius) want.emplace_back(i, j);
  // The cell size is an accelerator knob, not a semantic one.
  for (const double cell : {5.0, 20.0, 80.0}) {
    channel::CullStats stats;
    const auto got = channel::cull_pairs(channel::SpatialIndex(pts, cell),
                                         radius, &stats);
    EXPECT_EQ(got, want);
    EXPECT_EQ(stats.total_pairs, pts.size() * (pts.size() - 1) / 2);
    EXPECT_EQ(stats.kept_pairs, got.size());
    EXPECT_EQ(stats.kept_pairs + stats.culled_pairs, stats.total_pairs);
  }
}

TEST(SpatialIndex, PairVisitorSeesCullPairsWithTheirDistances) {
  // The visitor is the one enumeration; cull_pairs collects it.  Both must
  // give the brute-force pair list in order, and every distance the visitor
  // hands out must be the bits channel::distance gives for (p[i], p[j]).
  for (const FieldLayout layout :
       {FieldLayout::kRandom, FieldLayout::kGrid, FieldLayout::kClusters}) {
    std::vector<channel::Vec3> pts =
        NodeField::generate(spec_of(layout, 150, 5)).positions();
    pts.push_back(pts[17]);  // a coincident pair, kept at radius 0
    channel::Vec3 lo = pts[0], hi = pts[0];
    for (const channel::Vec3& p : pts) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
    const double diagonal = dist(lo, hi);
    const channel::SpatialIndex index(pts, 30.0);
    for (const double radius : {0.0, 25.0, diagonal, 2.0 * diagonal}) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
      for (std::uint32_t i = 0; i < pts.size(); ++i)
        for (std::uint32_t j = i + 1; j < pts.size(); ++j)
          if (dist(pts[i], pts[j]) <= radius) want.emplace_back(i, j);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
      std::size_t inexact = 0;
      const std::uint64_t visited = index.for_each_pair_within(
          radius, [&](std::uint32_t i, std::uint32_t j, double d) {
            seen.emplace_back(i, j);
            if (std::bit_cast<std::uint64_t>(d) !=
                std::bit_cast<std::uint64_t>(channel::distance(pts[i], pts[j])))
              ++inexact;
          });
      EXPECT_EQ(seen, want) << "radius " << radius;
      EXPECT_EQ(channel::cull_pairs(index, radius), want) << "radius " << radius;
      EXPECT_EQ(visited, want.size());
      EXPECT_EQ(inexact, 0u) << "radius " << radius;
      if (radius == 0.0) {
        const std::pair<std::uint32_t, std::uint32_t> coincident{
            17u, static_cast<std::uint32_t>(pts.size() - 1)};
        EXPECT_EQ(want, std::vector{coincident});
      }
      if (radius >= diagonal) {
        EXPECT_EQ(want.size(), pts.size() * (pts.size() - 1) / 2);
      }
    }
    // A negative or NaN radius keeps nothing.
    for (const double radius : {-1.0, std::numeric_limits<double>::quiet_NaN()})
      EXPECT_EQ(index.for_each_pair_within(
                    radius, [](std::uint32_t, std::uint32_t, double) {}),
                0u);
  }
}

TEST(SpatialIndex, CullRadiusBracketsTheGainFloorCrossing) {
  const double carrier = 15000.0;
  const double floor = 0.02;
  const double radius = channel::cull_radius_m(floor, carrier, 1.0e4);
  ASSERT_LT(radius, 1.0e4);
  // Rounded up: a link just inside the radius still clears the floor; a link
  // past it does not.
  EXPECT_GE(channel::path_amplitude_gain(radius * 0.999, carrier), floor);
  EXPECT_LT(channel::path_amplitude_gain(radius * 1.001, carrier), floor);
  // Saturates at max_radius when the floor is unreachable.
  EXPECT_EQ(channel::cull_radius_m(1e-12, carrier, 500.0), 500.0);
}

// --- TapCache quantization ---------------------------------------------------

TEST(TapCacheQuant, ZeroCellKeepsExactPerPairKeys) {
  const channel::Tank tank{};
  channel::TapCache cache(tank, 1, true, nullptr, channel::TapQuantization{0.0});
  const channel::Vec3 a{0.50, 0.80, 0.65};
  (void)cache.taps(a, {1.60, 2.20, 0.65}, 18500.0);
  (void)cache.taps(a, {1.61, 2.20, 0.65}, 18500.0);  // 1 cm apart: distinct
  EXPECT_EQ(cache.evaluations(), 2u);
  (void)cache.taps(a, {1.60, 2.20, 0.65}, 18500.0);
  EXPECT_EQ(cache.evaluations(), 2u);
  EXPECT_EQ(cache.lookups(), 3u);
}

TEST(TapCacheQuant, SameCellMembersShareOneBitIdenticalEntry) {
  const channel::Tank tank{};
  channel::TapCache cache(tank, 1, true, nullptr, channel::TapQuantization{0.5});
  const channel::Vec3 a{0.50, 0.80, 0.65};
  const auto t1 = cache.taps(a, {1.60, 2.20, 0.65}, 18500.0);
  const auto t2 = cache.taps(a, {1.61, 2.21, 0.66}, 18500.0);  // same cells
  EXPECT_EQ(cache.evaluations(), 1u);
  EXPECT_EQ(t1, t2);  // literally the same shared entry
}

TEST(TapCacheQuant, SymmetricLookupsCollapseToOneEntry) {
  // Canonical endpoint ordering: (a, b) and (b, a) are one key, and the taps
  // are computed at the snapped geometry, so both directions are
  // bit-identical by construction (image-method reciprocity made exact).
  const channel::Tank tank{};
  channel::TapCache cache(tank, 2, true, nullptr, channel::TapQuantization{0.5});
  const channel::Vec3 a{0.52, 0.83, 0.61};
  const channel::Vec3 b{1.58, 2.17, 0.68};
  const auto ab = cache.taps(a, b, 18500.0);
  const auto ba = cache.taps(b, a, 18500.0);
  EXPECT_EQ(cache.evaluations(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(ab, ba);
}

TEST(TapCacheQuant, QuantizedTapsEqualTheSnappedGeometryExactly) {
  const channel::Tank tank{};
  const double cell = 0.5;
  channel::TapCache cache(tank, 1, true, nullptr,
                          channel::TapQuantization{cell});
  const channel::Vec3 a{0.52, 0.83, 0.61};
  const channel::Vec3 b{1.58, 2.17, 0.68};
  const auto got = cache.taps(a, b, 18500.0);
  const auto snap = [&](const channel::Vec3& v) {
    return channel::Vec3{std::round(v.x / cell) * cell,
                         std::round(v.y / cell) * cell,
                         std::round(v.z / cell) * cell};
  };
  const auto want = channel::image_method_taps(tank, snap(a), snap(b), 1, 18500.0);
  ASSERT_EQ(got->size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ((*got)[k].delay_s, want[k].delay_s);
    EXPECT_EQ((*got)[k].gain, want[k].gain);
  }
}

TEST(TapCacheQuant, FreeFieldKeysCollapseToQuantizedDistance) {
  // Free-field taps depend on distance alone, so translated pairs with equal
  // quantized range share one entry.
  const channel::Tank tank{};
  channel::TapCache cache(tank, 1, false, nullptr,
                          channel::TapQuantization{0.5});
  (void)cache.taps({0, 0, 10}, {30, 0, 10}, 15000.0);
  (void)cache.taps({100, 50, 20}, {100, 79.9, 20}, 15000.0);  // also ~30 m
  EXPECT_EQ(cache.evaluations(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);
}

TEST(TapCacheQuant, FreeFieldTapsSitAtTheNearestCellDistance) {
  // The free-field key rule: a path's bin is its distance rounded to the
  // nearest cell, and its taps are computed at bin * cell_m.
  const channel::Tank tank{};
  const double cell = 0.5;
  channel::TapCache cache(tank, 1, false, nullptr, channel::TapQuantization{cell});
  ASSERT_TRUE(cache.keys_by_distance());
  const channel::Vec3 a{3.0, 4.0, 5.0};
  for (const double dx : {0.1, 0.26, 29.74, 29.76, 30.0, 120.49}) {
    const channel::Vec3 b{3.0 + dx, 4.0, 5.0};
    const double d = channel::distance(a, b);
    EXPECT_EQ(cache.distance_bin(d), std::round(d / cell));
    const auto got = cache.taps(a, b, 15000.0);
    const auto want = channel::free_field_tap(
        {}, {std::round(d / cell) * cell, 0.0, 0.0}, 15000.0, tank.water);
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0].delay_s, want[0].delay_s) << dx;
    EXPECT_EQ((*got)[0].gain, want[0].gain) << dx;
  }
  // Image-method keys and exact keys depend on more than the distance.
  EXPECT_FALSE(channel::TapCache(tank, 1, true, nullptr,
                                 channel::TapQuantization{cell})
                   .keys_by_distance());
  EXPECT_FALSE(channel::TapCache(tank, 1, false, nullptr,
                                 channel::TapQuantization{0.0})
                   .keys_by_distance());
}

TEST(TapCacheQuant, GridFieldHitRateBeatsEvaluations) {
  // On a lattice field the quantized free-field key space is the set of
  // distinct snapped ranges -- far smaller than the pair space.
  const NodeField f = NodeField::generate(spec_of(FieldLayout::kGrid, 100));
  const auto& pts = f.positions();
  channel::TapCache cache(channel::Tank{}, 1, false, nullptr,
                          channel::TapQuantization{0.5});
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      (void)cache.taps(pts[i], pts[j], 15000.0);
      ++pairs;
    }
  EXPECT_EQ(cache.lookups(), pairs);
  EXPECT_LT(cache.evaluations() * 10, cache.lookups())
      << "quantized keys should share across the lattice pair space";
}

// --- The kField trial kind ---------------------------------------------------

Session field_session(std::uint64_t population, FieldLayout layout,
                      obs::MetricRegistry* registry) {
  return Session(Scenario::open_water(spec_of(layout, population)), registry);
}

TEST(FieldTrial, CensusIsConservedAndInventoryFindsEveryNode) {
  obs::MetricRegistry registry;
  const Session session = field_session(60, FieldLayout::kRandom, &registry);
  const auto r = session.run_trial<TrialKind::kField>(0);
  ASSERT_TRUE(r.ok()) << r.error().message();
  const FieldRunResult& f = r.value();
  EXPECT_EQ(f.population, 60u);
  EXPECT_EQ(f.total_pairs, 60u * 59u / 2u);
  EXPECT_EQ(f.kept_pairs + f.culled_pairs, f.total_pairs);
  EXPECT_GT(f.cull_radius_m, 0.0);
  EXPECT_GT(f.mean_reader_gain, 0.0);
  EXPECT_GE(f.zones, 1u);
  EXPECT_GE(f.channels, 1u);
  EXPECT_GT(f.simulated_s, 0.0);
  EXPECT_NEAR(f.node_hours, 60.0 * f.simulated_s / 3600.0, 1e-12);
  // Every node identified exactly once, as a valid global index.
  std::set<std::uint32_t> seen(f.identified.begin(), f.identified.end());
  EXPECT_EQ(seen.size(), f.identified.size());
  EXPECT_EQ(seen.size(), 60u);
  EXPECT_LT(*seen.rbegin(), 60u);
}

TEST(FieldTrial, CulledPathMatchesBruteForceWhereItMust) {
  // Culling changes which pairs are *costed*, never the MAC outcome: the
  // radius, zones, schedule, and inventory are identical on both paths.
  obs::MetricRegistry r1, r2;
  const Session session = field_session(120, FieldLayout::kRandom, &r1);
  const Session reference = field_session(120, FieldLayout::kRandom, &r2);
  TrialOptions culled;
  TrialOptions brute;
  brute.field.brute_force = true;
  const auto a = session.run_trial<TrialKind::kField>(3, culled);
  const auto b = reference.run_trial<TrialKind::kField>(3, brute);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().cull_radius_m, b.value().cull_radius_m);
  EXPECT_EQ(a.value().identified, b.value().identified);
  EXPECT_EQ(a.value().zones, b.value().zones);
  EXPECT_EQ(a.value().zone_rounds, b.value().zone_rounds);
  EXPECT_EQ(a.value().simulated_s, b.value().simulated_s);
  EXPECT_EQ(a.value().event_log, b.value().event_log);
  // The brute path still evaluates the full pair space (that is the cost
  // being compared against), but its census now counts the same
  // within-radius set as the culled path.
  EXPECT_EQ(b.value().kept_pairs, a.value().kept_pairs);
  EXPECT_EQ(b.value().culled_pairs, a.value().culled_pairs);
  EXPECT_LT(a.value().kept_pairs, a.value().total_pairs);
  EXPECT_GT(a.value().culled_pairs, 0u);
  // And the quantized cache shares entries the exact-key path cannot.
  EXPECT_LT(a.value().tap_evaluations, b.value().tap_evaluations);
}

TEST(FieldTrial, BruteForceCensusAveragesOnlyWithinRadiusPairs) {
  // Regression: the brute-force reference used to accumulate every pair's
  // gain (n(n-1)/2 of them) while the culled path summed only within-radius
  // pairs, so the two mean_pair_gain figures disagreed even at exact tap
  // keys.  With quantization off, the censuses must agree bit for bit: same
  // pair set, same lexicographic order, same accumulator.
  obs::MetricRegistry r1, r2;
  const Session session = field_session(120, FieldLayout::kRandom, &r1);
  const Session reference = field_session(120, FieldLayout::kRandom, &r2);
  TrialOptions culled;
  culled.field.quant_cell_m = 0.0;
  TrialOptions brute = culled;
  brute.field.brute_force = true;
  const auto a = session.run_trial<TrialKind::kField>(3, culled);
  const auto b = reference.run_trial<TrialKind::kField>(3, brute);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_GT(a.value().culled_pairs, 0u);
  EXPECT_EQ(a.value().kept_pairs, b.value().kept_pairs);
  EXPECT_EQ(a.value().culled_pairs, b.value().culled_pairs);
  EXPECT_EQ(a.value().mean_pair_gain, b.value().mean_pair_gain);
  EXPECT_EQ(a.value().mean_reader_gain, b.value().mean_reader_gain);
}

// What a field trial's census reports, computed the plain way: one TapCache
// lookup and one coherent_gain for every gain read (the reader census, every
// cull_pairs pair, both reader paths of every node), then the zoned
// inventory those reader paths drive, set up as Session::field_into sets it
// up.  The trial must match it bit for bit whether or not its gain memo
// serves a read.
struct PerLookupCensus {
  std::uint64_t kept_pairs = 0, culled_pairs = 0;
  double mean_pair_gain = 0.0, mean_reader_gain = 0.0;
  std::uint64_t tap_lookups = 0, tap_evaluations = 0;
  double mean_slot_sinr_db = 0.0;
};

PerLookupCensus per_lookup_census(const Scenario& sc, std::uint64_t trial,
                                  const FieldRoundConfig& config) {
  const auto& positions = sc.field.positions();
  const std::size_t n = positions.size();
  const double carrier = sc.waveform.carrier_hz;
  const channel::Vec3& extent = sc.medium.tank.size;
  const double diagonal = std::sqrt(extent.x * extent.x + extent.y * extent.y +
                                    extent.z * extent.z);
  const channel::TapCache cache(sc.medium.tank, sc.medium.max_image_order,
                                sc.medium.use_image_method, nullptr,
                                channel::TapQuantization{config.quant_cell_m});
  const auto gain = [&cache](const channel::Vec3& a, const channel::Vec3& b,
                             double f) {
    return channel::coherent_gain(*cache.taps(a, b, f), f);
  };
  PerLookupCensus out;
  double reader_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    reader_sum += gain(sc.reader.projector, positions[j], carrier);
  out.mean_reader_gain = reader_sum / static_cast<double>(n);

  const double radius = std::min(
      channel::cull_radius_m(config.gain_floor, carrier, diagonal), diagonal);
  channel::CullStats stats;
  const auto kept = channel::cull_pairs(
      channel::SpatialIndex(positions, std::max(radius, 1.0)), radius, &stats);
  double pair_sum = 0.0;
  for (const auto& [i, j] : kept)
    pair_sum += gain(positions[i], positions[j], carrier);
  out.kept_pairs = stats.kept_pairs;
  out.culled_pairs = stats.culled_pairs;
  out.mean_pair_gain =
      kept.empty() ? 0.0 : pair_sum / static_cast<double>(kept.size());

  std::map<std::array<std::int64_t, 2>, std::vector<std::uint32_t>> grid;
  for (std::size_t j = 0; j < n; ++j)
    grid[{static_cast<std::int64_t>(
              std::floor(positions[j].x / config.zone_extent_m)),
          static_cast<std::int64_t>(
              std::floor(positions[j].y / config.zone_extent_m))}]
        .push_back(static_cast<std::uint32_t>(j));
  mac::ZoneLayout layout;
  std::vector<std::array<std::int64_t, 2>> coords;
  for (auto& [coord, members] : grid) {
    coords.push_back(coord);
    layout.members.push_back(std::move(members));
  }
  layout.adjacency.resize(layout.members.size());
  const auto gap = [&](std::int64_t da) {
    return static_cast<double>(std::max<std::int64_t>(std::llabs(da) - 1, 0)) *
           config.zone_extent_m;
  };
  for (std::size_t a = 0; a < coords.size(); ++a)
    for (std::size_t b = a + 1; b < coords.size(); ++b) {
      const double gx = gap(coords[a][0] - coords[b][0]);
      const double gy = gap(coords[a][1] - coords[b][1]);
      if (std::sqrt(gx * gx + gy * gy) <= radius) {
        layout.adjacency[a].push_back(static_cast<std::uint32_t>(b));
        layout.adjacency[b].push_back(static_cast<std::uint32_t>(a));
      }
    }
  const mac::ZoneSchedule schedule = mac::plan_zones(layout);

  mac::ZonedInventoryOptions slots;
  slots.frame_announce_s = config.frame_announce_s;
  slots.slot_s = config.slot_s;
  std::vector<double> node_amplitude(n);
  if (config.interference) {
    std::vector<std::uint32_t> zone_of(n, 0);
    for (std::size_t z = 0; z < layout.members.size(); ++z)
      for (const std::uint32_t g : layout.members[z])
        zone_of[g] = static_cast<std::uint32_t>(z);
    for (std::size_t j = 0; j < n; ++j) {
      const double f = schedule.zones[zone_of[j]].carrier_hz;
      const double down = gain(sc.reader.projector, positions[j], f);
      const double up = gain(positions[j], sc.reader.hydrophone, f);
      node_amplitude[j] = down * up;
    }
    slots.interference.enabled = true;
    slots.interference.noise_power = config.noise_power;
    slots.interference.capture_threshold_db = config.capture_threshold_db;
    slots.interference.mask.passband_hz = config.rejection_passband_hz;
    slots.interference.mask.slope_db_per_khz = config.rejection_slope_db_per_khz;
    slots.interference.mask.floor_db = config.rejection_floor_db;
    slots.interference.node_amplitude = node_amplitude;
  }
  mac::InventoryConfig inventory;
  inventory.seed = substream_seed(sc.medium.seed, trial);
  Timeline tl;
  out.mean_slot_sinr_db =
      mac::run_zoned_inventory(layout, schedule, inventory, tl, slots)
          .mean_slot_sinr_db;
  out.tap_lookups = cache.lookups();
  out.tap_evaluations = cache.evaluations();
  return out;
}

TEST(FieldTrial, GainMemoMatchesOneLookupPerGainBitForBit) {
  struct Case {
    const char* name;
    Scenario scenario;
    double quant_cell_m;
  };
  // A tank field: image-method keys depend on both endpoints, so the memo
  // must read every gain through the cache.
  Scenario tank = Scenario::pool_a();
  {
    std::vector<channel::Vec3> nodes;
    for (int k = 0; k < 14; ++k)
      nodes.push_back({0.3 + 0.17 * k, 0.4 + 0.23 * k, 0.2 + 0.06 * k});
    tank.field = NodeField::from_nodes(
        nodes, std::vector<FrontEndSpec>(nodes.size(), FrontEndSpec{}));
  }
  const auto open = [](FieldLayout layout, std::uint64_t seed) {
    return Scenario::open_water(spec_of(layout, 300, seed)).with_seed(seed + 40);
  };
  const Case cases[] = {
      {"random, 0.5 m cells", open(FieldLayout::kRandom, 21), 0.5},
      {"grid, 0.5 m cells", open(FieldLayout::kGrid, 4), 0.5},
      {"clusters, 0.5 m cells", open(FieldLayout::kClusters, 3), 0.5},
      {"clusters, 0.05 m cells", open(FieldLayout::kClusters, 3), 0.05},
      {"random, exact keys", open(FieldLayout::kRandom, 21), 0.0},
      {"pool A tank, 0.5 m cells", tank, 0.5},
  };
  for (const Case& c : cases) {
    obs::MetricRegistry registry;
    const Session session(c.scenario, &registry);
    TrialOptions opts;
    opts.field.quant_cell_m = c.quant_cell_m;
    opts.field.zone_extent_m = 60.0;
    opts.field.interference = true;
    for (const std::uint64_t trial : {0u, 5u}) {
      const auto r = session.run_trial<TrialKind::kField>(trial, opts);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.error().message();
      const FieldRunResult& f = r.value();
      const PerLookupCensus want =
          per_lookup_census(c.scenario, trial, opts.field);
      EXPECT_EQ(f.kept_pairs, want.kept_pairs) << c.name;
      EXPECT_EQ(f.culled_pairs, want.culled_pairs) << c.name;
      EXPECT_EQ(f.mean_pair_gain, want.mean_pair_gain) << c.name;
      EXPECT_EQ(f.mean_reader_gain, want.mean_reader_gain) << c.name;
      EXPECT_EQ(f.tap_lookups, want.tap_lookups) << c.name;
      EXPECT_EQ(f.tap_evaluations, want.tap_evaluations) << c.name;
      EXPECT_EQ(f.mean_slot_sinr_db, want.mean_slot_sinr_db) << c.name;
      // Every gain read counts as a lookup: the reader census, every kept
      // pair, and two reader paths per node.
      const std::uint64_t n = c.scenario.node_count();
      EXPECT_EQ(f.tap_lookups, n + f.kept_pairs + 2 * n) << c.name;
      EXPECT_GT(f.kept_pairs, 0u) << c.name;
      EXPECT_NE(f.mean_slot_sinr_db, 0.0) << c.name;
    }
  }
}

TEST(FieldTrial, SpatialCountersAndArenaGaugesAreExported) {
  obs::MetricRegistry registry;
  const Session session = field_session(80, FieldLayout::kGrid, &registry);
  const auto r = session.run_trial<TrialKind::kField>(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(registry.counter("channel.spatial.culled_pairs").value(),
            r.value().culled_pairs);
  EXPECT_EQ(registry.counter("channel.spatial.kept_pairs").value(),
            r.value().kept_pairs);
  EXPECT_EQ(registry.counter("sim.session.field.trials").value(), 1u);
  // The trial's private tap cache publishes its counts once, with the same
  // totals a registry-bound cache counts lookup by lookup.
  EXPECT_EQ(registry.counter("channel.tapcache.misses").value(),
            r.value().tap_evaluations);
  EXPECT_EQ(registry.counter("channel.tapcache.hits").value(),
            r.value().tap_lookups - r.value().tap_evaluations);
  // The arena gauges exist (flatness across populations is asserted by the
  // deployment_scale bench sidecar in CI).
  EXPECT_GE(registry.gauge("sim.session.arena.high_water_bytes").value(), 0.0);
}

TEST(FieldTrial, RuntimeKindDispatchReturnsTheFieldAlternative) {
  obs::MetricRegistry registry;
  const Session session = field_session(40, FieldLayout::kGrid, &registry);
  const auto r = session.run_trial(TrialKind::kField, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().index(), 3u);
  EXPECT_EQ(std::get<FieldRunResult>(r.value()).population, 40u);
}

TEST(FieldTrial, EventLogIsBitIdenticalAtOneTwoAndEightThreads) {
  obs::MetricRegistry registry;
  const Session session = field_session(64, FieldLayout::kClusters, &registry);
  constexpr std::size_t kTrials = 6;
  const auto reference =
      BatchRunner(1, nullptr).run<TrialKind::kField>(session, kTrials);
  for (const unsigned threads : {2u, 8u}) {
    const auto got =
        BatchRunner(threads, nullptr).run<TrialKind::kField>(session, kTrials);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_TRUE(got[i].ok());
      ASSERT_TRUE(reference[i].ok());
      EXPECT_EQ(got[i].value().event_log, reference[i].value().event_log)
          << "trial " << i << " at " << threads << " threads";
      EXPECT_EQ(got[i].value().identified, reference[i].value().identified);
      EXPECT_EQ(got[i].value().kept_pairs, reference[i].value().kept_pairs);
      EXPECT_EQ(got[i].value().mean_pair_gain,
                reference[i].value().mean_pair_gain);
      EXPECT_EQ(got[i].value().simulated_s, reference[i].value().simulated_s);
    }
  }
}

std::uint64_t fnv1a_of_ids(const std::vector<std::uint32_t>& ids) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint32_t id : ids) {
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct FieldGolden {
  std::uint64_t population, field_seed, scenario_seed;
  double zone_extent_m;
  std::uint64_t trial;
  std::size_t zones, rounds;
  std::size_t frames, slots, singletons, collisions, empties;
  double simulated_s;  // exact double bits, printed with %.17g
  std::uint64_t id_fnv;
};

TEST(FieldTrial, InterferenceOffReproducesTheIsolatedZoneScheduleBitExactly) {
  // Golden values captured from the pre-rewrite implementation (isolated
  // per-zone sub-timelines).  The slot-aligned master-timeline rewrite must
  // reproduce them bit for bit whenever the interference model is off:
  // identical discovery order (FNV-1a over the id sequence), identical
  // stats, identical simulated_s doubles.
  const FieldGolden goldens[] = {
      {60, 7, 11, 60.0, 0, 4, 2, 26, 204, 60, 65, 79, 4.2499999999999991,
       8926500687752584819ULL},
      {60, 7, 11, 60.0, 3, 4, 2, 19, 200, 60, 64, 76, 3.9299999999999997,
       14024558422842895219ULL},
      {200, 21, 421, 80.0, 0, 4, 2, 31, 696, 200, 212, 284,
       8.8499999999999979, 13448096161640506931ULL},
      {24, 5, 5, 1000.0, 0, 1, 1, 7, 84, 24, 28, 32, 2.0300000000000002,
       5834561346759575699ULL},
  };
  for (const FieldGolden& g : goldens) {
    FieldSpec spec;
    spec.layout = FieldLayout::kRandom;
    spec.population = g.population;
    spec.seed = g.field_seed;
    obs::MetricRegistry registry;
    const Session session(Scenario::open_water(spec).with_seed(g.scenario_seed),
                          &registry);
    TrialOptions opts;
    opts.field.zone_extent_m = g.zone_extent_m;
    const auto r = session.run_trial<TrialKind::kField>(g.trial, opts);
    ASSERT_TRUE(r.ok()) << r.error().message();
    const FieldRunResult& f = r.value();
    EXPECT_EQ(f.zones, g.zones) << "population " << g.population;
    EXPECT_EQ(f.zone_rounds, g.rounds);
    EXPECT_EQ(f.inventory.frames, g.frames);
    EXPECT_EQ(f.inventory.slots, g.slots);
    EXPECT_EQ(f.inventory.singletons, g.singletons);
    EXPECT_EQ(f.inventory.collisions, g.collisions);
    EXPECT_EQ(f.inventory.empties, g.empties);
    EXPECT_EQ(f.simulated_s, g.simulated_s);
    EXPECT_EQ(fnv1a_of_ids(f.identified), g.id_fnv);
    // Off means off: the SINR ledger stays empty.
    EXPECT_EQ(f.interference_corrupted_slots, 0u);
    EXPECT_EQ(f.mean_slot_sinr_db, 0.0);
  }
}

TEST(FieldTrial, InterferenceOnIsBitIdenticalAtOneTwoAndEightThreads) {
  FieldSpec spec;
  spec.layout = FieldLayout::kRandom;
  spec.population = 200;
  spec.seed = 21;
  obs::MetricRegistry registry;
  const Session session(Scenario::open_water(spec).with_seed(421), &registry);
  TrialOptions opts;
  opts.field.zone_extent_m = 80.0;
  opts.field.interference = true;
  constexpr std::size_t kTrials = 4;
  const auto reference =
      BatchRunner(1, nullptr).run<TrialKind::kField>(session, kTrials, opts);
  for (const unsigned threads : {2u, 8u}) {
    const auto got = BatchRunner(threads, nullptr)
                         .run<TrialKind::kField>(session, kTrials, opts);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_TRUE(got[i].ok());
      ASSERT_TRUE(reference[i].ok());
      EXPECT_EQ(got[i].value().event_log, reference[i].value().event_log)
          << "trial " << i << " at " << threads << " threads";
      EXPECT_EQ(got[i].value().identified, reference[i].value().identified);
      EXPECT_EQ(got[i].value().interference_corrupted_slots,
                reference[i].value().interference_corrupted_slots);
      EXPECT_EQ(got[i].value().mean_slot_sinr_db,
                reference[i].value().mean_slot_sinr_db);
      EXPECT_EQ(got[i].value().simulated_s, reference[i].value().simulated_s);
    }
  }
}

// FNV-1a over every field of every log entry: time and value bits, seq, label
// bytes, kind.
std::uint64_t fnv1a_of_log(const std::vector<TimelineEvent>& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const TimelineEvent& e : log) {
    mix(&e.time, sizeof e.time);
    mix(&e.seq, sizeof e.seq);
    mix(e.label.data(), e.label.size());
    mix(&e.value, sizeof e.value);
    mix(&e.kind, sizeof e.kind);
  }
  return h;
}

struct InterferenceGolden {
  FieldLayout layout;
  std::uint64_t population, field_seed, scenario_seed;
  double zone_extent_m, frame_announce_s, rejection_floor_db;
  std::uint64_t trial;
  std::size_t rounds;
  std::size_t frames, slots, singletons, collisions, empties, corrupted;
  double mean_slot_sinr_db, simulated_s;  // exact double bits, %.17g
  std::size_t events_processed;
  std::uint64_t id_fnv, log_fnv;
};

TEST(FieldTrial, InterferenceOnMatchesRecordedGoldens) {
  // Absolute outputs of interference-on field trials, recorded before the
  // slot SINR search and the heap-ordered Timeline replaced the full window
  // scan and the map queue.  The configurations cover one and several
  // reuse rounds, co-channel zones, and a frame announcement shorter than a
  // slot (a zone's windows then outlive its frame).
  const InterferenceGolden goldens[] = {
      {FieldLayout::kRandom, 200, 21, 421, 80.0, 0.05, 40.0, 0, 2, 31, 696,
       200, 214, 282, 2, 42.995893137403449, 8.8499999999999979, 733,
       1362223915317230403ULL, 8964700306189841922ULL},
      {FieldLayout::kClusters, 200, 3, 9, 50.0, 0.005, 40.0, 2, 2, 89, 1070,
       200, 365, 505, 118, 23.852975471127571, 9.379999999999999, 1169,
       9098798357154699091ULL, 5958052375747172632ULL},
      {FieldLayout::kRandom, 150, 8, 13, 40.0, 0.05, 20.0, 1, 4, 83, 720, 150,
       240, 330, 88, 22.722779798325853, 8.5999999999999996, 819,
       3329164040318756610ULL, 15114287995105213582ULL},
      {FieldLayout::kGrid, 100, 4, 6, 30.0, 0.01, 25.0, 5, 5, 173, 738, 99,
       294, 345, 192, 11.265291987170095, 5.7600000000000016, 932,
       10209981404604602800ULL, 6234461026974103174ULL},
  };
  for (const InterferenceGolden& g : goldens) {
    const FieldSpec spec = spec_of(g.layout, g.population, g.field_seed);
    obs::MetricRegistry registry;
    const Session session(Scenario::open_water(spec).with_seed(g.scenario_seed),
                          &registry);
    TrialOptions opts;
    opts.field.interference = true;
    opts.field.zone_extent_m = g.zone_extent_m;
    opts.field.frame_announce_s = g.frame_announce_s;
    opts.field.rejection_floor_db = g.rejection_floor_db;
    const auto r = session.run_trial<TrialKind::kField>(g.trial, opts);
    ASSERT_TRUE(r.ok()) << r.error().message();
    const FieldRunResult& f = r.value();
    EXPECT_EQ(f.zone_rounds, g.rounds) << "population " << g.population;
    EXPECT_EQ(f.inventory.frames, g.frames);
    EXPECT_EQ(f.inventory.slots, g.slots);
    EXPECT_EQ(f.inventory.singletons, g.singletons);
    EXPECT_EQ(f.inventory.collisions, g.collisions);
    EXPECT_EQ(f.inventory.empties, g.empties);
    EXPECT_EQ(f.interference_corrupted_slots, g.corrupted);
    EXPECT_EQ(f.mean_slot_sinr_db, g.mean_slot_sinr_db);
    EXPECT_EQ(f.simulated_s, g.simulated_s);
    EXPECT_EQ(f.events_processed, g.events_processed);
    EXPECT_EQ(f.event_log.size(), g.events_processed);
    EXPECT_EQ(fnv1a_of_ids(f.identified), g.id_fnv);
    EXPECT_EQ(fnv1a_of_log(f.event_log), g.log_fnv);
  }
}

TEST(FieldTrial, CaptureThresholdExtremesBracketTheFieldInventory) {
  FieldSpec spec;
  spec.layout = FieldLayout::kRandom;
  spec.population = 200;
  spec.seed = 21;
  obs::MetricRegistry registry;
  const Session session(Scenario::open_water(spec).with_seed(421), &registry);
  TrialOptions off;
  off.field.zone_extent_m = 80.0;

  // Always-capture: the interference machinery runs but never corrupts, so
  // the outcome matches the off-mode schedule bit for bit.
  TrialOptions always = off;
  always.field.interference = true;
  always.field.capture_threshold_db = -1e9;
  const auto base = session.run_trial<TrialKind::kField>(0, off);
  const auto a = session.run_trial<TrialKind::kField>(0, always);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().identified, base.value().identified);
  EXPECT_EQ(a.value().simulated_s, base.value().simulated_s);
  EXPECT_EQ(a.value().interference_corrupted_slots, 0u);
  EXPECT_NE(a.value().mean_slot_sinr_db, 0.0);  // evaluated, just never fatal

  // Never-capture: every singleton is corrupted, nobody is found, and the
  // inventory gives up at max_frames instead of hanging.
  TrialOptions never = off;
  never.field.interference = true;
  never.field.capture_threshold_db = 1e9;
  const auto n = session.run_trial<TrialKind::kField>(0, never);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n.value().identified.empty());
  EXPECT_GT(n.value().interference_corrupted_slots, 0u);
}

TEST(FieldTrial, RejectsBadConfig) {
  obs::MetricRegistry registry;
  const Session session = field_session(10, FieldLayout::kGrid, &registry);
  TrialOptions opts;
  opts.field.gain_floor = 0.0;
  EXPECT_FALSE(session.run_trial<TrialKind::kField>(0, opts).ok());
  opts = {};
  opts.field.zone_extent_m = -1.0;
  EXPECT_FALSE(session.run_trial<TrialKind::kField>(0, opts).ok());
  opts = {};
  opts.field.quant_cell_m = -0.5;
  EXPECT_FALSE(session.run_trial<TrialKind::kField>(0, opts).ok());
  opts = {};
  opts.field.interference = true;
  opts.field.noise_power = -1.0;
  EXPECT_FALSE(session.run_trial<TrialKind::kField>(0, opts).ok());
  opts = {};
  opts.field.interference = true;
  opts.field.rejection_floor_db = -1.0;
  EXPECT_FALSE(session.run_trial<TrialKind::kField>(0, opts).ok());

  // Options the zoned inventory cannot run with are the trial's error, never
  // an exception out of run_trial (a campaign then writes an error row).
  const auto code_of = [](const Session& s, const TrialOptions& o) {
    return s.run_trial<TrialKind::kField>(0, o).code();
  };
  constexpr auto kInvalid = ErrorCode::kInvalidArgument;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  opts = {};
  opts.field.frame_announce_s = -1.0;
  EXPECT_EQ(code_of(session, opts), kInvalid);
  opts = {};
  opts.field.slot_s = -0.02;
  EXPECT_EQ(code_of(session, opts), kInvalid);
  opts = {};
  opts.field.frame_announce_s = nan;
  EXPECT_EQ(code_of(session, opts), kInvalid);
  opts = {};
  opts.field.zone_extent_m = nan;
  EXPECT_EQ(code_of(session, opts), kInvalid);
  // A zone key floor(x / extent) outside the int64 range has no cell.
  opts = {};
  opts.field.zone_extent_m = 1e-300;
  EXPECT_EQ(code_of(session, opts), kInvalid);
  // Zone-local ids are uint8: one 100 km zone over 300 nodes is too many.
  obs::MetricRegistry big_registry;
  const Session big = field_session(300, FieldLayout::kGrid, &big_registry);
  opts = {};
  opts.field.zone_extent_m = 100000.0;
  EXPECT_EQ(code_of(big, opts), kInvalid);
}

}  // namespace
}  // namespace pab::sim
