// RFID-style query/response protocol helpers (paper section 3.3.2).
#pragma once

#include <optional>
#include <string>

#include "node/node.hpp"
#include "phy/packet.hpp"

namespace pab::mac {

// Builders for the downlink commands.
[[nodiscard]] phy::DownlinkQuery make_ping(std::uint8_t address);
[[nodiscard]] phy::DownlinkQuery make_read_ph(std::uint8_t address);
[[nodiscard]] phy::DownlinkQuery make_read_temperature(std::uint8_t address);
[[nodiscard]] phy::DownlinkQuery make_read_pressure(std::uint8_t address);
[[nodiscard]] phy::DownlinkQuery make_set_bitrate(std::uint8_t address,
                                                  std::uint8_t table_index);
[[nodiscard]] phy::DownlinkQuery make_set_robust_mode(std::uint8_t address,
                                                      bool enable);

// A decoded sensor reading extracted from an uplink payload.
struct SensorReading {
  phy::Command command = phy::Command::kPing;
  double value = 0.0;
  std::string unit;
};

// Interpret `packet` as the response to `query`; fails when the payload size
// does not match the command.
[[nodiscard]] std::optional<SensorReading> parse_response(
    const phy::DownlinkQuery& query, const phy::UplinkPacket& packet);

// Expected uplink payload size in bytes for each command's response.
[[nodiscard]] std::size_t response_payload_size(phy::Command command);

}  // namespace pab::mac
