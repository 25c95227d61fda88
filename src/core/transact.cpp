#include "core/transact.hpp"

#include "phy/fec.hpp"

namespace pab::core {

pab::Expected<phy::UplinkPacket> transact(const LinkSimulator& link,
                                          const Projector& projector,
                                          node::PabNode& node,
                                          const phy::DownlinkQuery& query,
                                          double carrier_hz, pab::Rng& rng) {
  // Downlink.
  const auto sliced = link.downlink_sliced_envelope(
      projector, query, node.config().downlink_pwm, carrier_hz);
  const auto received =
      node.receive_downlink(sliced, link.config().sample_rate);
  if (!received)
    return pab::Error{pab::ErrorCode::kTimeout, "node did not decode the query"};

  // Node executes the command.
  const auto response = node.process_query(*received);
  if (!response)
    return pab::Error{pab::ErrorCode::kTimeout, "node did not respond"};

  // Uplink at the node's current bitrate; in robust mode the body is
  // FEC-protected on air and recovered here.
  sim::Waveform ucfg;
  ucfg.carrier_hz = carrier_hz;
  ucfg.bitrate = node.bitrate();
  const auto out = link.run_and_decode(projector, node.front_end(),
                                       node.uplink_body(*response), ucfg, rng);
  if (!out.ok()) return out.error();
  pab::Bits rx_body = out.value().demod.bits;
  if (node.robust_uplink())
    rx_body = phy::fec_recover(rx_body, response->to_bits(false).size());
  const auto packet = phy::UplinkPacket::from_bits(rx_body, false);
  if (!packet) return pab::Error{pab::ErrorCode::kCrcMismatch, "uplink CRC"};
  return *packet;
}

}  // namespace pab::core
