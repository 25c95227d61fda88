// MS5837-30BA waterproof digital pressure/temperature sensor model.
//
// Implements the device side (I2C registers, calibration PROM, raw ADC
// conversions) and the MCU-side driver with the exact first-order
// compensation math from the TE Connectivity datasheet, so the full
// query -> I2C transaction -> raw counts -> compensated reading path is
// exercised (paper sections 5.1c, 6.5).
#pragma once

#include <array>
#include <cstdint>

#include "sense/environment.hpp"
#include "sense/i2c.hpp"
#include "util/rng.hpp"

namespace pab::sense {

inline constexpr std::uint8_t kMs5837Address = 0x76;

// Command bytes (subset of the datasheet's).
inline constexpr std::uint8_t kMs5837CmdReset = 0x1E;
inline constexpr std::uint8_t kMs5837CmdConvertD1 = 0x40;  // pressure, OSR 256
inline constexpr std::uint8_t kMs5837CmdConvertD2 = 0x50;  // temperature, OSR 256
inline constexpr std::uint8_t kMs5837CmdAdcRead = 0x00;
inline constexpr std::uint8_t kMs5837CmdPromBase = 0xA0;   // +2*i for word i

// Device-side model.  Generates raw D1/D2 counts consistent with its PROM
// calibration constants and the ambient environment.
class Ms5837Device : public I2cDevice {
 public:
  Ms5837Device(const Environment* env, double depth_m, pab::Rng rng);

  void write(std::span<const std::uint8_t> data) override;
  [[nodiscard]] std::vector<std::uint8_t> read(std::size_t n) override;

 private:
  [[nodiscard]] std::uint32_t raw_d1() const;  // pressure counts
  [[nodiscard]] std::uint32_t raw_d2() const;  // temperature counts

  const Environment* env_;
  double depth_m_;
  pab::Rng rng_;
  std::array<std::uint16_t, 8> prom_{};
  std::uint8_t last_command_ = 0;
  std::uint32_t adc_result_ = 0;
};

// MCU-side driver: runs the datasheet compensation on raw counts read over
// the bus.
struct Ms5837Reading {
  double temperature_c = 0.0;
  double pressure_mbar = 0.0;
};

class Ms5837Driver {
 public:
  explicit Ms5837Driver(I2cBus* bus);

  // Full measurement cycle: PROM read (cached), D1/D2 conversions, ADC
  // reads, first-order compensation.
  [[nodiscard]] pab::Expected<Ms5837Reading> measure();

  // The datasheet first-order algorithm, exposed for unit testing.
  [[nodiscard]] static Ms5837Reading compensate(
      std::uint32_t d1, std::uint32_t d2, const std::array<std::uint16_t, 8>& prom);

 private:
  I2cBus* bus_;
  std::array<std::uint16_t, 8> prom_{};
  bool prom_loaded_ = false;
};

}  // namespace pab::sense
