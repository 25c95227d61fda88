// Scenario: the immutable description of one simulated experiment.
//
// A Scenario bundles everything that used to be plumbed separately through
// core::SimConfig / core::Placement / per-run config structs: the tank and
// medium, instrument placement, the projector, the node field (every node's
// position and front end, see sim/field.hpp), and the waveform / FDMA-frame
// parameters.  It is a plain value -- copy it, tweak a field, and you have a
// new experiment; hand it to a sim::Session and it is treated as frozen for
// the session's lifetime.  All Monte-Carlo randomness derives from
// `medium.seed` via per-trial substreams (sim/batch.hpp), so a Scenario value
// pins an experiment bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/tank.hpp"
#include "circuit/rectopiezo.hpp"
#include "core/projector.hpp"
#include "core/setup.hpp"
#include "sim/field.hpp"
#include "sim/waveform.hpp"

namespace pab::sim {

// The acoustic source: either the paper's physical cylinder transducer at a
// drive voltage, or an idealized flat source (re-matched per frequency).
struct ProjectorSpec {
  double drive_v = 50.0;          // physical model: amplifier drive [V]
  bool ideal = false;             // true: flat `ideal_pressure_pa` source
  double ideal_pressure_pa = 300.0;
};

// The reader's own instruments (the battery-powered side of the link).
// Node positions live in the NodeField, never here.
struct ReaderPlacement {
  channel::Vec3 projector{0.5, 0.8, 0.65};
  channel::Vec3 hydrophone{0.8, 1.6, 0.65};
};

struct Scenario {
  // Medium, sampling, noise, and the base RNG seed (the legacy SimConfig
  // block, embedded whole so the core shims interoperate losslessly).
  core::SimConfig medium{};
  // Projector / hydrophone positions.
  ReaderPlacement reader{};
  // Every node: position j and front end j as one indexed collection (the
  // unified accessor that replaces the old placement.node / extra_nodes /
  // parallel front_ends split).  Defaults to the paper's single tank node.
  NodeField field{};
  // Provenance when `field` was generated (kExplicit for hand-placed fields);
  // campaign `field.*` params edit this spec and regenerate.
  FieldSpec field_spec{};

  ProjectorSpec projector{};

  Waveform waveform{};  // single-link uplink trials (Session::run)
  FdmaPlan fdma{};      // concurrent frames (Session::run_network)

  // ---- Named presets (replace the pool_a_config()-style free functions) ----
  [[nodiscard]] static Scenario pool_a();         // 3 x 4 m tank, section 5.1
  [[nodiscard]] static Scenario pool_b();         // 1.2 x 10 m corridor
  [[nodiscard]] static Scenario swimming_pool();  // 10 x 25 m indoor pool
  // The paper's two-node concurrent setup (section 6.3 / Fig. 10): 15 and
  // 18 kHz recto-piezos in Pool A with the ideal projector.
  [[nodiscard]] static Scenario pool_a_concurrent();
  // Deployment-scale open water: a free-field region sized by the spec's
  // population at constant density, reader moored at the region center,
  // nodes laid out by the spec's generator.  The image method is disabled
  // (no walls); this is the geometry the deployment_scale bench sweeps.
  [[nodiscard]] static Scenario open_water(const FieldSpec& spec);

  // ---- Derived accessors ----------------------------------------------------
  [[nodiscard]] std::size_t node_count() const { return field.size(); }
  [[nodiscard]] NodeView node(std::size_t j) const { return field.at(j); }
  [[nodiscard]] const channel::Vec3& node_position(std::size_t j) const {
    return field.position(j);
  }
  // The legacy 3-point placement view (projector / hydrophone / node 0) that
  // the core-layer simulators consume.  Requires a non-empty field.
  [[nodiscard]] core::Placement placement() const {
    return core::Placement{reader.projector, reader.hydrophone, field.position(0)};
  }

  // ---- Fluent copies for sweep construction ---------------------------------
  [[nodiscard]] Scenario with_seed(std::uint64_t seed) const;
  [[nodiscard]] Scenario with_waveform(const Waveform& w) const;
  // Sets the reader instruments and node 0 from the legacy 3-point view.
  [[nodiscard]] Scenario with_placement(const core::Placement& p) const;
  [[nodiscard]] Scenario with_node(const channel::Vec3& node) const;
  // Regenerates geometry from `spec` in place: tank extent, reader mooring,
  // and the node field (the transform open_water() applies; campaign field.*
  // axes reuse it).
  void apply_field(const FieldSpec& spec);

  // Instantiate hardware from the specs.
  [[nodiscard]] core::Projector make_projector() const;
  [[nodiscard]] circuit::RectoPiezo make_front_end(std::size_t j) const;
};

}  // namespace pab::sim
