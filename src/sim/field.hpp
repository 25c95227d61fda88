// NodeField: the first-class node population of a Scenario.
//
// The paper's experiments hold one or two nodes in a tank; a deployment-scale
// simulation holds thousands spread over open water.  A NodeField owns every
// node's position together with its front-end spec as one indexed collection,
// so there is no node-0-special-case split (the old `placement.node` +
// `extra_nodes` + parallel `front_ends` vector) left to drift out of sync:
// position j and front end j cannot have different counts by construction,
// and all callers index through the same accessors.
//
// Field generators (grid / random / clustered layouts at constant areal
// density) are pure functions of a FieldSpec, so a generated field is pinned
// bit-for-bit by the spec value -- the same contract Scenario has with
// `medium.seed`.  Placement randomness comes from `FieldSpec::seed`, which is
// deliberately decoupled from the Monte-Carlo seed: sweeping trial seeds
// re-rolls the noise, not the deployment geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/tank.hpp"

namespace pab::sim {

// A node front end by construction parameters (kept as data so Scenario stays
// a value type; sim::Session instantiates the circuit::RectoPiezo objects).
struct FrontEndSpec {
  double match_frequency_hz = 15000.0;  // electrical (FDMA) resonance
  double mech_resonance_hz = 16500.0;   // transducer mechanical resonance
  double assist_gain_db = 0.0;          // battery-assisted reflection gain

  friend bool operator==(const FrontEndSpec&, const FrontEndSpec&) = default;
};

// One node viewed through the unified accessor: everything callers may index
// per node, bundled so position/front-end indices cannot diverge.
struct NodeView {
  std::size_t index = 0;
  const channel::Vec3& position;
  const FrontEndSpec& front_end;
};

// How a generated field is laid out.  kExplicit marks hand-placed fields
// (the paper's tank presets); the other layouts are produced by
// NodeField::generate from a FieldSpec.
enum class FieldLayout : std::uint8_t {
  kExplicit = 0,
  kGrid = 1,     // square lattice at constant areal density
  kRandom = 2,   // uniform over the deployment region
  kClusters = 3, // Gaussian clusters around uniformly drawn centers
};

// Generator parameters for deployment-scale fields.  The horizontal region is
// a square sized from the population at constant density
// (`area_per_node_m2`), so sweeping the population keeps the node spacing --
// and with it every per-node quantity (neighbour count, culled-pair degree,
// arena scratch) -- flat.
struct FieldSpec {
  FieldLayout layout = FieldLayout::kExplicit;
  std::uint64_t population = 0;
  double area_per_node_m2 = 100.0;  // constant density: region area = population x this
  double depth_m = 25.0;            // water column depth (region z extent)
  std::uint64_t clusters = 8;       // kClusters: number of cluster centers
  double cluster_spread_m = 10.0;   // kClusters: per-axis Gaussian spread
  std::uint64_t seed = 1;           // placement randomness (not the trial seed)
  FrontEndSpec front_end{};         // spec stamped on every generated node

  // Side length of the square deployment region [m].
  [[nodiscard]] double extent_m() const;
};

class NodeField {
 public:
  // The default field is the paper's single tank node (the historical
  // `Placement::node` default with a default front end).
  NodeField();

  [[nodiscard]] static NodeField empty();
  [[nodiscard]] static NodeField single(const channel::Vec3& position,
                                        const FrontEndSpec& spec = {});
  // Paired construction; requires positions.size() == specs.size().
  [[nodiscard]] static NodeField from_nodes(std::vector<channel::Vec3> positions,
                                            std::vector<FrontEndSpec> specs);
  // Deterministic generation from a spec (see FieldSpec).  The region is
  // [0, extent] x [0, extent] x [0, depth]; nodes keep a margin from every
  // boundary so generated fields always sit strictly inside their tank.
  [[nodiscard]] static NodeField generate(const FieldSpec& spec);

  [[nodiscard]] std::size_t size() const { return positions_.size(); }

  // The unified per-node accessor: the only sanctioned way to read a node.
  [[nodiscard]] NodeView at(std::size_t j) const {
    return NodeView{j, positions_.at(j), front_ends_.at(j)};
  }
  [[nodiscard]] const channel::Vec3& position(std::size_t j) const {
    return positions_.at(j);
  }
  [[nodiscard]] const FrontEndSpec& front_end(std::size_t j) const {
    return front_ends_.at(j);
  }
  [[nodiscard]] const std::vector<channel::Vec3>& positions() const {
    return positions_;
  }
  [[nodiscard]] const std::vector<FrontEndSpec>& front_ends() const {
    return front_ends_;
  }

  // Mutators keep the pairing invariant by construction.
  void push_back(const channel::Vec3& position, const FrontEndSpec& spec = {});
  void set_position(std::size_t j, const channel::Vec3& position);
  void clear();

  friend bool operator==(const NodeField&, const NodeField&) = default;

 private:
  std::vector<channel::Vec3> positions_;
  std::vector<FrontEndSpec> front_ends_;
};

}  // namespace pab::sim
