#include "mac/protocol.hpp"

namespace pab::mac {
namespace {

phy::DownlinkQuery make(std::uint8_t address, phy::Command c, std::uint8_t arg = 0) {
  phy::DownlinkQuery q;
  q.address = address;
  q.command = c;
  q.argument = arg;
  return q;
}

}  // namespace

phy::DownlinkQuery make_ping(std::uint8_t address) {
  return make(address, phy::Command::kPing);
}
phy::DownlinkQuery make_read_ph(std::uint8_t address) {
  return make(address, phy::Command::kReadPh);
}
phy::DownlinkQuery make_read_temperature(std::uint8_t address) {
  return make(address, phy::Command::kReadTemperature);
}
phy::DownlinkQuery make_read_pressure(std::uint8_t address) {
  return make(address, phy::Command::kReadPressure);
}
phy::DownlinkQuery make_set_bitrate(std::uint8_t address, std::uint8_t table_index) {
  return make(address, phy::Command::kSetBitrate, table_index);
}

phy::DownlinkQuery make_set_robust_mode(std::uint8_t address, bool enable) {
  return make(address, phy::Command::kSetRobustMode, enable ? 1 : 0);
}

std::size_t response_payload_size(phy::Command command) {
  switch (command) {
    case phy::Command::kPing: return 1;
    case phy::Command::kReadPh: return 2;
    case phy::Command::kReadTemperature: return 2;
    case phy::Command::kReadPressure: return 4;
    case phy::Command::kSetBitrate: return 1;
    case phy::Command::kSetResonance: return 1;
    case phy::Command::kReadAdc: return 2;
    case phy::Command::kSetRobustMode: return 1;
  }
  return 0;
}

std::optional<SensorReading> parse_response(const phy::DownlinkQuery& query,
                                            const phy::UplinkPacket& packet) {
  if (packet.payload.size() != response_payload_size(query.command))
    return std::nullopt;
  SensorReading r;
  r.command = query.command;
  switch (query.command) {
    case phy::Command::kPing:
      r.value = packet.payload[0];
      r.unit = "id";
      break;
    case phy::Command::kReadPh:
      r.value = node::decode_ph_payload(packet.payload);
      r.unit = "pH";
      break;
    case phy::Command::kReadTemperature:
      r.value = node::decode_temperature_payload(packet.payload);
      r.unit = "degC";
      break;
    case phy::Command::kReadPressure:
      r.value = node::decode_pressure_payload(packet.payload);
      r.unit = "mbar";
      break;
    case phy::Command::kSetBitrate:
    case phy::Command::kSetResonance:
    case phy::Command::kSetRobustMode:
      r.value = packet.payload[0];
      r.unit = "index";
      break;
    case phy::Command::kReadAdc:
      r.value = (packet.payload[0] << 8) | packet.payload[1];
      r.unit = "counts";
      break;
  }
  return r;
}

}  // namespace pab::mac
