#include "phy/crc.hpp"

namespace pab::phy {

std::uint16_t crc16_bits(std::span<const std::uint8_t> bits) {
  constexpr std::uint16_t kPoly = 0x1021;
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : bits) {
    const bool xor_flag = ((crc >> 15) & 1u) != (b & 1u);
    crc = static_cast<std::uint16_t>(crc << 1);
    if (xor_flag) crc ^= kPoly;
  }
  return crc;
}

}  // namespace pab::phy
