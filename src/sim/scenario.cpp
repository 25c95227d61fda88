#include "sim/scenario.hpp"

#include "piezo/transducer.hpp"

namespace pab::sim {

Scenario Scenario::pool_a() {
  Scenario s;
  s.medium = core::SimConfig{};
  s.medium.tank = channel::make_pool_a();
  return s;
}

Scenario Scenario::pool_b() {
  Scenario s;
  s.medium.tank = channel::make_pool_b();
  // The default node (x = 1.6 m) would sit outside the 1.2 m wide corridor;
  // put it on the corridor axis.  The default projector and hydrophone
  // already lie inside.
  s.field = NodeField::single({0.6, 2.2, 0.65});
  return s;
}

Scenario Scenario::swimming_pool() {
  Scenario s;
  s.medium.tank = channel::make_swimming_pool();
  // Default placement scaled into the larger pool (the Pool A default sits in
  // a corner of a 10 x 25 m basin and would leave most of it unused).
  s.reader.projector = {5.0, 10.0, 1.0};
  s.reader.hydrophone = {5.0, 11.5, 1.0};
  s.field = NodeField::single({6.2, 12.0, 1.0});
  return s;
}

Scenario Scenario::pool_a_concurrent() {
  Scenario s = pool_a();
  s.reader.projector = {1.5, 1.5, 0.65};
  s.reader.hydrophone = {1.5, 2.5, 0.65};
  s.field = NodeField::from_nodes(
      {{1.0, 2.0, 0.65}, {2.0, 2.0, 0.65}},
      {FrontEndSpec{.match_frequency_hz = 15000.0},
       FrontEndSpec{.match_frequency_hz = 18000.0}});
  s.projector.ideal = true;
  s.projector.ideal_pressure_pa = 300.0;
  s.fdma.carriers_hz = {15000.0, 18000.0};
  return s;
}

Scenario Scenario::open_water(const FieldSpec& spec) {
  Scenario s;
  s.apply_field(spec);
  return s;
}

Scenario Scenario::with_seed(std::uint64_t seed) const {
  Scenario s = *this;
  s.medium.seed = seed;
  return s;
}

Scenario Scenario::with_waveform(const Waveform& w) const {
  Scenario s = *this;
  s.waveform = w;
  return s;
}

Scenario Scenario::with_placement(const core::Placement& p) const {
  Scenario s = *this;
  s.reader.projector = p.projector;
  s.reader.hydrophone = p.hydrophone;
  s.field.set_position(0, p.node);
  return s;
}

Scenario Scenario::with_node(const channel::Vec3& node) const {
  Scenario s = *this;
  s.field.set_position(0, node);
  return s;
}

void Scenario::apply_field(const FieldSpec& spec) {
  field_spec = spec;
  field = NodeField::generate(spec);
  // Open water: a free-field region sized to hold the population at the
  // spec's density.  No walls, so the image method is off and the "tank" is
  // just the bounding box invariants check containment against.
  const double extent = spec.extent_m();
  medium.use_image_method = false;
  medium.tank.size = {extent, extent, spec.depth_m};
  // Reader moored at the region center, hydrophone slightly offset so the
  // projector->hydrophone distance never degenerates to zero.
  const double mid_z = 0.5 * spec.depth_m;
  reader.projector = {0.5 * extent, 0.5 * extent, mid_z};
  reader.hydrophone = {0.5 * extent, 0.5 * extent + 1.5, mid_z};
}

core::Projector Scenario::make_projector() const {
  if (projector.ideal) return core::Projector::ideal(projector.ideal_pressure_pa);
  return core::Projector(piezo::make_projector_transducer(), projector.drive_v);
}

circuit::RectoPiezo Scenario::make_front_end(std::size_t j) const {
  const FrontEndSpec& spec = field.front_end(j);
  circuit::RectoPiezoConfig cfg;
  cfg.match_frequency_hz = spec.match_frequency_hz;
  cfg.assist_gain_db = spec.assist_gain_db;
  return circuit::RectoPiezo(piezo::make_node_transducer(spec.mech_resonance_hz),
                             cfg);
}

}  // namespace pab::sim
