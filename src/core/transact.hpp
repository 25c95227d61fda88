// One reader query/response exchange.
//
// The projector acts as an RFID-style reader (paper section 3.3.2): it sends
// a PWM-coded query on the downlink carrier, the addressed node decodes it,
// executes the command and backscatters its reply, and the hydrophone
// decodes that reply.  core::transact runs one such exchange over the
// waveform simulator.  A whole reader is this call plus PabNode::cold_start
// (the charge) under a mac::PollScheduler (retries and airtime books), as in
// examples/ocean_monitoring.cpp.
#pragma once

#include "core/link.hpp"
#include "core/projector.hpp"
#include "node/node.hpp"
#include "phy/packet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pab::core {

// One whole query/response exchange between the reader and `node`: the PWM
// query on the downlink at `carrier_hz`, the node's receive and execute, its
// backscattered reply at the node's bitrate (FEC-coded in robust mode), then
// decode, FEC recovery and the CRC.  Noise is drawn from `rng`.
[[nodiscard]] pab::Expected<phy::UplinkPacket> transact(
    const LinkSimulator& link, const Projector& projector, node::PabNode& node,
    const phy::DownlinkQuery& query, double carrier_hz, pab::Rng& rng);

}  // namespace pab::core
