#include "node/node.hpp"

#include <cmath>

#include "phy/fec.hpp"
#include "util/error.hpp"

namespace pab::node {

PabNode::PabNode(NodeConfig config, const sense::Environment* environment,
                 std::uint64_t seed)
    : config_(std::move(config)),
      environment_(environment),
      rng_(seed),
      harvester_(circuit::Supercapacitor(1000e-6)),
      mcu_(),
      adc_(),
      ph_probe_(environment),
      i2c_(),
      ms5837_(&i2c_) {
  require(environment_ != nullptr, "PabNode: null environment");
  require(!config_.resonance_bank.empty(), "PabNode: empty resonance bank");
  require(config_.active_resonance < config_.resonance_bank.size(),
          "PabNode: active resonance out of range");
  require(!config_.bitrate_table.empty(), "PabNode: empty bitrate table");
  require(config_.active_bitrate < config_.bitrate_table.size(),
          "PabNode: active bitrate out of range");
  rebuild_front_end();
  i2c_.attach(sense::kMs5837Address,
              std::make_shared<sense::Ms5837Device>(environment_,
                                                    config_.node_depth_m,
                                                    rng_.fork()));
}

void PabNode::rebuild_front_end() {
  bank_.clear();
  bank_.reserve(config_.resonance_bank.size());
  for (double f : config_.resonance_bank) {
    circuit::RectoPiezoConfig cfg;
    cfg.match_frequency_hz = f;
    cfg.rectifier = config_.rectifier;
    cfg.scatter_efficiency = config_.scatter_efficiency;
    bank_.emplace_back(
        piezo::make_node_transducer(config_.mechanical_resonance_hz), cfg);
  }
}

const circuit::RectoPiezo& PabNode::front_end() const {
  return bank_[config_.active_resonance];
}

void PabNode::harvest_step(double dt, double freq_hz, double p_pa,
                           NodeState state) {
  const circuit::RectoPiezo& fe = front_end();
  const double p_dc = fe.harvested_dc_power(freq_hz, p_pa);
  const double v_ceiling = fe.rectified_open_voltage(freq_hz, p_pa);
  double p_load = 0.0;
  switch (state) {
    case NodeState::kColdStart:
      p_load = 0.0;
      break;
    case NodeState::kIdle:
      p_load = mcu_.idle_power_w();
      break;
    case NodeState::kDecoding:
      p_load = mcu_.state_power_w(energy::McuState::kActive);
      break;
    case NodeState::kBackscattering:
      p_load = mcu_.backscatter_power_w(bitrate());
      break;
  }
  harvester_.step(dt, p_dc, p_load, v_ceiling);
}

double PabNode::cold_start(double freq_hz, double p_pa, double timeout_s) {
  constexpr double kDt = 0.01;
  double t = 0.0;
  for (; t < timeout_s && !powered_up(); t += kDt)
    harvest_step(kDt, freq_hz, p_pa, NodeState::kColdStart);
  return t;
}

std::optional<phy::DownlinkQuery> PabNode::receive_downlink(
    std::span<const std::uint8_t> sliced_envelope, double sample_rate) {
  if (!powered_up()) return std::nullopt;
  const pab::Bits bits =
      phy::pwm_decode(sliced_envelope, config_.downlink_pwm, sample_rate);
  auto query = phy::DownlinkQuery::from_bits(bits);
  if (query) {
    harvester_.ledger().add(
        energy::Category::kDecode,
        mcu_.decode_energy_j(bits.size(), config_.downlink_pwm.unit_s));
  }
  return query;
}

std::optional<phy::UplinkPacket> PabNode::process_query(
    const phy::DownlinkQuery& query) {
  if (!powered_up()) return std::nullopt;
  if (query.address != phy::kBroadcastAddress && query.address != config_.id)
    return std::nullopt;

  phy::UplinkPacket response;
  response.node_id = config_.id;

  switch (query.command) {
    case phy::Command::kPing:
      response.payload = {config_.id};
      break;
    case phy::Command::kReadPh: {
      response.payload = encode_ph_payload(read_ph());
      harvester_.ledger().add(energy::Category::kSensing, 50e-6);
      break;
    }
    case phy::Command::kReadTemperature: {
      auto reading = read_pressure_sensor();
      if (!reading.ok()) return std::nullopt;
      response.payload = encode_temperature_payload(reading.value().temperature_c);
      harvester_.ledger().add(energy::Category::kSensing, 30e-6);
      break;
    }
    case phy::Command::kReadPressure: {
      auto reading = read_pressure_sensor();
      if (!reading.ok()) return std::nullopt;
      response.payload = encode_pressure_payload(reading.value().pressure_mbar);
      harvester_.ledger().add(energy::Category::kSensing, 30e-6);
      break;
    }
    case phy::Command::kSetBitrate: {
      if (query.argument >= config_.bitrate_table.size()) return std::nullopt;
      config_.active_bitrate = query.argument;
      response.payload = {query.argument};
      break;
    }
    case phy::Command::kSetResonance: {
      if (query.argument >= config_.resonance_bank.size()) return std::nullopt;
      config_.active_resonance = query.argument;
      response.payload = {query.argument};
      break;
    }
    case phy::Command::kSetRobustMode: {
      config_.robust_uplink = query.argument != 0;
      response.payload = {query.argument};
      break;
    }
    case phy::Command::kReadAdc: {
      const std::uint16_t code = adc_.sample(ph_probe_.afe_output(rng_), rng_);
      response.payload = {static_cast<std::uint8_t>(code >> 8),
                          static_cast<std::uint8_t>(code & 0xFF)};
      harvester_.ledger().add(energy::Category::kSensing, 10e-6);
      break;
    }
  }

  // Account the backscatter energy for the response.
  const std::size_t n_bits = uplink_bits_on_air(response.payload.size());
  const double tx_s = static_cast<double>(n_bits) / bitrate();
  harvester_.ledger().add(energy::Category::kBackscatter,
                          mcu_.backscatter_power_w(bitrate()) * tx_s);
  return response;
}

pab::Bits PabNode::uplink_body(const phy::UplinkPacket& packet) const {
  pab::Bits body = packet.to_bits(/*include_preamble=*/false);
  if (config_.robust_uplink) body = phy::fec_protect(body);
  return body;
}

std::size_t PabNode::uplink_bits_on_air(std::size_t payload_len) const {
  const std::size_t body =
      phy::UplinkPacket::bits_on_air(payload_len, /*include_preamble=*/false);
  return phy::uplink_preamble_bits().size() +
         (config_.robust_uplink ? phy::fec_coded_size(body) : body);
}

pab::Expected<sense::Ms5837Reading> PabNode::read_pressure_sensor() {
  return ms5837_.measure();
}

double PabNode::read_ph() {
  const std::uint16_t code = adc_.sample(ph_probe_.afe_output(rng_), rng_);
  return ph_probe_.ph_from_adc(code, adc_, environment_->temperature_c);
}

// --- Payload encodings -------------------------------------------------------

pab::Bytes encode_ph_payload(double ph) {
  // Fixed point: pH * 100 in a uint16 (0.00 .. 14.00 fits easily).
  const auto v = static_cast<std::uint16_t>(std::lround(ph * 100.0));
  return {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v & 0xFF)};
}

double decode_ph_payload(const pab::Bytes& payload) {
  require(payload.size() == 2, "decode_ph_payload: bad size");
  return static_cast<double>((payload[0] << 8) | payload[1]) / 100.0;
}

pab::Bytes encode_temperature_payload(double temp_c) {
  // Signed centi-degrees in int16.
  const auto v = static_cast<std::int16_t>(std::lround(temp_c * 100.0));
  const auto u = static_cast<std::uint16_t>(v);
  return {static_cast<std::uint8_t>(u >> 8), static_cast<std::uint8_t>(u & 0xFF)};
}

double decode_temperature_payload(const pab::Bytes& payload) {
  require(payload.size() == 2, "decode_temperature_payload: bad size");
  const auto u = static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
  return static_cast<double>(static_cast<std::int16_t>(u)) / 100.0;
}

pab::Bytes encode_pressure_payload(double pressure_mbar) {
  // Deci-millibar in uint32 (covers full 30 bar range of the sensor).
  const auto v = static_cast<std::uint32_t>(std::lround(pressure_mbar * 10.0));
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

double decode_pressure_payload(const pab::Bytes& payload) {
  require(payload.size() == 4, "decode_pressure_payload: bad size");
  const std::uint32_t v = (static_cast<std::uint32_t>(payload[0]) << 24) |
                          (static_cast<std::uint32_t>(payload[1]) << 16) |
                          (static_cast<std::uint32_t>(payload[2]) << 8) |
                          static_cast<std::uint32_t>(payload[3]);
  return static_cast<double>(v) / 10.0;
}

}  // namespace pab::node
