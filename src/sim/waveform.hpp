// Shared waveform parameter structs consumed by sim::Scenario and by the
// core simulators: a single `Waveform` describes a one-node backscatter
// uplink and a single `FdmaPlan` describes a concurrent multi-node frame.
//
// This header is deliberately near-dependency-free so the lower core/ layer
// can take these types without linking against the sim module; the one
// include is the tiny phy/scheme_id.hpp enum header (core already depends on
// phy).
#pragma once

#include <cstddef>
#include <vector>

#include "phy/scheme_id.hpp"

namespace pab::sim {

// Single-link backscatter uplink parameters.
struct Waveform {
  double carrier_hz = 15000.0;
  double bitrate = 1000.0;
  double node_start_s = 0.05;  // node begins backscattering at this link time
  double tail_s = 0.02;        // extra CW after the packet
  // Payload size drawn per Monte-Carlo trial by sim::Session (ignored by the
  // legacy call paths, which pass explicit bit vectors).
  std::size_t payload_bits = 64;
  // Uplink modulation scheme (phy::Scheme seam).  kFm0 -- the paper's line
  // code -- keeps every preset and campaign fingerprint bit-identical to the
  // pre-seam behaviour.
  phy::SchemeId scheme = phy::SchemeId::kFm0;
};

// FDMA channel plan for concurrent multi-node frames.  One carrier per node.
struct FdmaPlan {
  std::vector<double> carriers_hz;  // one per node (the FDMA plan)
  double bitrate = 250.0;
  std::size_t training_bits = 24;
  std::size_t payload_bits = 96;
};

}  // namespace pab::sim
