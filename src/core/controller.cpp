#include "core/controller.hpp"

#include "phy/fec.hpp"
#include "util/error.hpp"

namespace pab::core {

pab::Expected<phy::UplinkPacket> transact(const LinkSimulator& link,
                                          const Projector& projector,
                                          node::PabNode& node,
                                          const phy::DownlinkQuery& query,
                                          double carrier_hz, pab::Rng& rng,
                                          double* snr_db) {
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
  if (snr_db != nullptr) *snr_db = out.value().demod.snr_db;
  pab::Bits rx_body = out.value().demod.bits;
  if (node.robust_uplink())
    rx_body = phy::fec_recover(rx_body, response->to_bits(false).size());
  const auto packet = phy::UplinkPacket::from_bits(rx_body, false);
  if (!packet) return pab::Error{pab::ErrorCode::kCrcMismatch, "uplink CRC"};
  return *packet;
}

namespace {

// A rate controller over the node's clock-divider table, at its current rate.
mac::RateController rate_controller_for(const node::PabNode& node) {
  mac::RateControlConfig cfg;
  cfg.ladder = mac::fm0_ladder(node.config().bitrate_table);
  return mac::RateController(cfg, node.config().active_bitrate);
}

}  // namespace

ReaderController::ReaderController(SimConfig config, Placement base,
                                   Projector projector, double carrier_hz)
    : config_(config),
      base_(base),
      projector_(std::move(projector)),
      carrier_hz_(carrier_hz) {
  require(carrier_hz > 0.0, "ReaderController: carrier must be positive");
}

std::uint8_t ReaderController::deploy_node(node::NodeConfig node_config,
                                           const sense::Environment* environment,
                                           channel::Vec3 position) {
  require(config_.tank.contains(position), "deploy_node: position outside tank");
  require(nodes_.find(node_config.id) == nodes_.end(),
          "deploy_node: duplicate address");
  const std::uint8_t address = node_config.id;

  DeployedNode entry;
  entry.node = std::make_unique<node::PabNode>(node_config, environment,
                                               config_.seed + address);
  entry.position = position;
  entry.rate = rate_controller_for(*entry.node);
  nodes_.emplace(address, std::move(entry));
  return address;
}

std::size_t ReaderController::power_up_all(double timeout_s) {
  require(timeout_s >= 0.0, "power_up_all: negative timeout");
  for (auto& [address, entry] : nodes_) {
    Placement pl = base_;
    pl.node = entry.position;
    const LinkSimulator sim(config_, pl);
    entry.node->cold_start(carrier_hz_,
                           sim.incident_pressure(projector_, carrier_hz_),
                           timeout_s);
  }
  std::size_t powered = 0;
  for (const auto& [address, entry] : nodes_)
    if (entry.node->powered_up()) ++powered;
  return powered;
}

pab::Expected<phy::UplinkPacket> ReaderController::transact_once(
    DeployedNode& entry, const phy::DownlinkQuery& query, double* snr_out) {
  Placement pl = base_;
  pl.node = entry.position;
  const LinkSimulator sim(config_, pl);
  pab::Rng rng(config_.seed + 7919 * (++seed_counter_));
  return transact(sim, projector_, *entry.node, query, carrier_hz_, rng,
                  snr_out);
}

void ReaderController::apply_rate_change(DeployedNode& entry,
                                         std::uint8_t address) {
  const auto target = static_cast<std::uint8_t>(entry.rate.rate_index());
  const auto query = mac::make_set_bitrate(address, target);
  double snr = 0.0;
  const auto result = transact_once(entry, query, &snr);
  if (!result.ok()) {
    // Could not push the change; re-synchronize the controller with the
    // node's actual operating point.
    entry.rate = rate_controller_for(*entry.node);
  }
}

pab::Expected<mac::SensorReading> ReaderController::read(std::uint8_t address,
                                                         phy::Command command) {
  auto it = nodes_.find(address);
  if (it == nodes_.end())
    return pab::Error{pab::ErrorCode::kInvalidArgument, "unknown address"};
  DeployedNode& entry = it->second;
  ++entry.transactions;

  const auto query = [&] {
    phy::DownlinkQuery q;
    q.address = address;
    q.command = command;
    return q;
  }();

  double snr = 0.0;
  const std::size_t bits =
      entry.node->uplink_bits_on_air(mac::response_payload_size(command));
  const auto link = [&](const phy::DownlinkQuery& q) {
    return transact_once(entry, q, &snr);
  };
  const auto result =
      scheduler_.transact(query, link, bits, entry.node->bitrate());
  if (!result.ok()) {
    ++entry.failures;
    if (entry.rate.observe(0.0, /*crc_ok=*/false))
      apply_rate_change(entry, address);
    return result.error();
  }

  if (entry.rate.observe(snr, /*crc_ok=*/true))
    apply_rate_change(entry, address);

  const auto reading = mac::parse_response(query, result.value());
  if (!reading)
    return pab::Error{pab::ErrorCode::kDecodeFailure, "payload size mismatch"};
  return *reading;
}

pab::Expected<mac::SensorReading> ReaderController::configure(
    std::uint8_t address, phy::Command command, std::uint8_t argument) {
  auto it = nodes_.find(address);
  if (it == nodes_.end())
    return pab::Error{pab::ErrorCode::kInvalidArgument, "unknown address"};
  DeployedNode& entry = it->second;

  phy::DownlinkQuery query;
  query.address = address;
  query.command = command;
  query.argument = argument;

  double snr = 0.0;
  const std::size_t bits =
      entry.node->uplink_bits_on_air(mac::response_payload_size(command));
  const auto link = [&](const phy::DownlinkQuery& q) {
    return transact_once(entry, q, &snr);
  };
  const auto result =
      scheduler_.transact(query, link, bits, entry.node->bitrate());
  if (!result.ok()) return result.error();
  const auto reading = mac::parse_response(query, result.value());
  if (!reading)
    return pab::Error{pab::ErrorCode::kDecodeFailure, "payload size mismatch"};
  return *reading;
}

std::vector<std::uint8_t> ReaderController::discover(std::uint8_t max_address) {
  std::vector<std::uint8_t> found;
  for (std::uint8_t a = 1; a <= max_address && a != 0; ++a) {
    auto it = nodes_.find(a);
    if (it == nodes_.end()) continue;  // nothing deployed there; no reply
    double snr = 0.0;
    const auto result = transact_once(it->second, mac::make_ping(a), &snr);
    if (result.ok() && result.value().node_id == a) found.push_back(a);
  }
  return found;
}

double ReaderController::node_bitrate(std::uint8_t address) const {
  const auto it = nodes_.find(address);
  require(it != nodes_.end(), "node_bitrate: unknown address");
  return it->second.node->bitrate();
}

bool ReaderController::node_powered(std::uint8_t address) const {
  const auto it = nodes_.find(address);
  require(it != nodes_.end(), "node_powered: unknown address");
  return it->second.node->powered_up();
}

}  // namespace pab::core
