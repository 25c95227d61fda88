// Byte-level references for the bit-vector code: MSB-first packing between
// bytes and bit vectors, and a byte-wise CRC-16/CCITT-FALSE that
// phy::crc16_bits (bit-serial, one bit per element) is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitops.hpp"
#include "util/error.hpp"

namespace pab::testing {

// Unpack bytes to bits, MSB first.
inline Bits bits_from_bytes(std::span<const std::uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (const std::uint8_t byte : bytes)
    for (int i = 7; i >= 0; --i)
      out.push_back(static_cast<std::uint8_t>((byte >> i) & 1u));
  return out;
}

// Pack bits (MSB first) into bytes.  Bit count must be a multiple of 8.
inline Bytes bytes_from_bits(std::span<const std::uint8_t> bits) {
  require(bits.size() % 8 == 0, "bytes_from_bits: bit count not a multiple of 8");
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    out[i / 8] = static_cast<std::uint8_t>((out[i / 8] << 1) | (bits[i] & 1u));
  return out;
}

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no final
// xor), the textbook byte-at-a-time form.
inline std::uint16_t crc16_ccitt(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t byte : bytes) {
    crc = static_cast<std::uint16_t>(crc ^ (byte << 8));
    for (int i = 0; i < 8; ++i)
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? (crc << 1) ^ 0x1021u
                                                       : crc << 1);
  }
  return crc;
}

}  // namespace pab::testing
