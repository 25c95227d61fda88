// The battery-free PAB sensor node.
//
// Composes every hardware block of paper section 4: the recto-piezo front end
// (with an optional bank of matching networks selectable by the MCU,
// section 3.3.2), the energy-harvesting chain (rectifier -> supercapacitor ->
// LDO), the envelope/Schmitt downlink receiver, the MCU protocol logic, and
// the peripheral sensors (pH via ADC, pressure/temperature via I2C).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "circuit/rectopiezo.hpp"
#include "energy/harvester.hpp"
#include "energy/mcu.hpp"
#include "phy/modem.hpp"
#include "phy/packet.hpp"
#include "phy/pwm.hpp"
#include "sense/adc.hpp"
#include "sense/environment.hpp"
#include "sense/i2c.hpp"
#include "sense/ms5837.hpp"
#include "sense/ph.hpp"
#include "util/rng.hpp"

namespace pab::node {

struct NodeConfig {
  std::uint8_t id = 1;
  // Selectable recto-piezo bank: electrical match frequencies [Hz].  The MCU
  // can switch among them on a kSetResonance command.
  std::vector<double> resonance_bank = {15000.0};
  std::size_t active_resonance = 0;
  double mechanical_resonance_hz = 16500.0;
  circuit::RectifierParams rectifier{};
  double scatter_efficiency = 0.6;
  // Selectable uplink bitrates: every rate the MCU's clock dividers reach.
  std::vector<double> bitrate_table{energy::kClockDividerBitrates.begin(),
                                    energy::kClockDividerBitrates.end()};
  std::size_t active_bitrate = 5;  // 1 kbps default
  phy::PwmParams downlink_pwm{};
  double node_depth_m = 0.5;
  // Robust uplink: Hamming(7,4) + interleaving on the packet body (1.75x
  // airtime); switchable over the air with kSetRobustMode.
  bool robust_uplink = false;
};

// Lifecycle of the node's digital section (paper section 4.2.2).
enum class NodeState {
  kColdStart,      // capacitor below power-up threshold
  kIdle,           // powered, interrupts armed, LPM3
  kDecoding,       // timing downlink edges
  kBackscattering, // driving the switch
};

class PabNode {
 public:
  PabNode(NodeConfig config, const sense::Environment* environment,
          std::uint64_t seed = 1);

  // --- Front end -----------------------------------------------------------
  [[nodiscard]] const circuit::RectoPiezo& front_end() const;
  [[nodiscard]] double resonance_hz() const { return front_end().match_frequency(); }
  [[nodiscard]] double bitrate() const {
    return config_.bitrate_table[config_.active_bitrate];
  }
  [[nodiscard]] const NodeConfig& config() const { return config_; }

  // --- Energy --------------------------------------------------------------
  // Advance the harvesting chain by `dt` under an incident carrier of
  // amplitude `p_pa` at `freq_hz`, while consuming power for `state`.
  void harvest_step(double dt, double freq_hz, double p_pa, NodeState state);
  // Charge from the downlink carrier with no load, in 10 ms steps, until the
  // node powers up or `timeout_s` passes.  Returns the simulated seconds.
  double cold_start(double freq_hz, double p_pa, double timeout_s);
  [[nodiscard]] bool powered_up() const { return harvester_.powered_up(); }
  [[nodiscard]] double capacitor_voltage() const {
    return harvester_.capacitor_voltage();
  }
  [[nodiscard]] const energy::EnergyLedger& ledger() const {
    return harvester_.ledger();
  }
  [[nodiscard]] const energy::McuPowerModel& mcu() const { return mcu_; }

  // --- Downlink ------------------------------------------------------------
  // Node-side PWM receive path: sliced envelope -> edge timing -> query.
  // Returns the query only when powered up and the frame parses.
  [[nodiscard]] std::optional<phy::DownlinkQuery> receive_downlink(
      std::span<const std::uint8_t> sliced_envelope, double sample_rate);

  // --- Protocol ------------------------------------------------------------
  // Execute a query addressed to this node (or broadcast): run the command,
  // build the uplink response.  Returns nullopt if not addressed or not
  // powered.  Accounts decode/sense/backscatter energy in the ledger.
  [[nodiscard]] std::optional<phy::UplinkPacket> process_query(
      const phy::DownlinkQuery& query);

  // The bits the node backscatters after the uplink preamble: the packet
  // body, FEC-protected in robust mode (the preamble stays uncoded for
  // detection).
  [[nodiscard]] pab::Bits uplink_body(const phy::UplinkPacket& packet) const;
  // Bits on air for a reply carrying `payload_len` bytes: the preamble plus
  // the body, FEC-coded in robust mode.
  [[nodiscard]] std::size_t uplink_bits_on_air(std::size_t payload_len) const;
  [[nodiscard]] bool robust_uplink() const { return config_.robust_uplink; }

  // --- Sensors (exposed for tests/examples) ---------------------------------
  [[nodiscard]] pab::Expected<sense::Ms5837Reading> read_pressure_sensor();
  [[nodiscard]] double read_ph();

 private:
  void rebuild_front_end();

  NodeConfig config_;
  const sense::Environment* environment_;
  pab::Rng rng_;
  std::vector<circuit::RectoPiezo> bank_;
  energy::Harvester harvester_;
  energy::McuPowerModel mcu_;
  sense::Adc adc_;
  sense::PhProbe ph_probe_;
  sense::I2cBus i2c_;
  sense::Ms5837Driver ms5837_;
};

// --- Payload encodings used by the commands ---------------------------------

[[nodiscard]] pab::Bytes encode_ph_payload(double ph);
[[nodiscard]] double decode_ph_payload(const pab::Bytes& payload);
[[nodiscard]] pab::Bytes encode_temperature_payload(double temp_c);
[[nodiscard]] double decode_temperature_payload(const pab::Bytes& payload);
[[nodiscard]] pab::Bytes encode_pressure_payload(double pressure_mbar);
[[nodiscard]] double decode_pressure_payload(const pab::Bytes& payload);

}  // namespace pab::node
