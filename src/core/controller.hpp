// Reader-side network controller.
//
// The projector acts as an RFID-style reader (paper section 3.3.2).  This
// class is the full reader implementation over the waveform simulator: it
// deploys battery-free nodes in the tank, charges them from the downlink
// carrier, discovers them by ping scan, executes CRC-checked query/response
// transactions with retransmission, and adapts each node's bitrate with the
// kSetBitrate command as channel conditions change.  Each exchange is one
// call to core::transact, which examples and benches also use directly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/link.hpp"
#include "core/projector.hpp"
#include "mac/protocol.hpp"
#include "mac/rate_control.hpp"
#include "mac/scheduler.hpp"
#include "node/node.hpp"

namespace pab::core {

// One whole query/response exchange between the reader and `node`: the PWM
// query on the downlink at `carrier_hz`, the node's receive and execute, its
// backscattered reply at the node's bitrate (FEC-coded in robust mode), then
// decode, FEC recovery and the CRC.  Noise is drawn from `rng`; `snr_db`,
// when given, receives the decoded chip SNR.
[[nodiscard]] pab::Expected<phy::UplinkPacket> transact(
    const LinkSimulator& link, const Projector& projector, node::PabNode& node,
    const phy::DownlinkQuery& query, double carrier_hz, pab::Rng& rng,
    double* snr_db = nullptr);

struct DeployedNode {
  std::unique_ptr<node::PabNode> node;
  // The link at this node's position, built once at deploy time on the
  // reader's shared tap cache.
  LinkSimulator link;
  mac::RateController rate;
  std::size_t transactions = 0;
  std::size_t failures = 0;
};

class ReaderController {
 public:
  ReaderController(SimConfig config, Placement base, Projector projector,
                   double carrier_hz = 15000.0);

  // Place a battery-free node in the tank.  Returns its address.
  std::uint8_t deploy_node(node::NodeConfig node_config,
                           const sense::Environment* environment,
                           channel::Vec3 position);

  // Transmit CW and let every deployed node harvest for up to `timeout_s`
  // (simulated time).  Returns how many nodes reached power-up.
  std::size_t power_up_all(double timeout_s);

  // Ping scan over [1, max_address]: which addresses answer?
  [[nodiscard]] std::vector<std::uint8_t> discover(std::uint8_t max_address);

  // One full waveform-level transaction with retries; feeds the node's rate
  // controller and pushes a kSetBitrate command when it moves.
  [[nodiscard]] pab::Expected<mac::SensorReading> read(
      std::uint8_t address, phy::Command command);

  // Send an argumented configuration command (kSetBitrate, kSetResonance,
  // kSetRobustMode, ...) and wait for the node's acknowledgement.
  [[nodiscard]] pab::Expected<mac::SensorReading> configure(
      std::uint8_t address, phy::Command command, std::uint8_t argument);

  [[nodiscard]] mac::TransactionStats stats() const {
    return scheduler_.stats();
  }
  [[nodiscard]] const std::map<std::uint8_t, DeployedNode>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] double node_bitrate(std::uint8_t address) const;
  [[nodiscard]] bool node_powered(std::uint8_t address) const;

 private:
  // One raw downlink->uplink exchange against a specific node.
  [[nodiscard]] pab::Expected<phy::UplinkPacket> transact_once(
      DeployedNode& entry, const phy::DownlinkQuery& query, double* snr_out);

  // Push a rate change to the node (best effort).
  void apply_rate_change(DeployedNode& entry, std::uint8_t address);

  SimConfig config_;
  Placement base_;
  Projector projector_;
  double carrier_hz_;
  std::shared_ptr<channel::TapCache> taps_;  // shared by every node's link
  std::map<std::uint8_t, DeployedNode> nodes_;
  mac::PollScheduler scheduler_;
  std::uint64_t seed_counter_ = 0;
};

}  // namespace pab::core
