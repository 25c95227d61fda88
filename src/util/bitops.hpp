// Bit-vector helpers shared by the PHY and MAC layers.
//
// Bits travel through the stack as std::vector<uint8_t> with one bit per
// element (value 0 or 1); bytes are packed MSB-first, matching the RFID-style
// framing the paper adopts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pab {

using Bits = std::vector<std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

// Append `width` bits of `value`, MSB first.
inline void append_uint(Bits& bits, std::uint32_t value, int width) {
  require(width > 0 && width <= 32, "append_uint: width out of range");
  for (int i = width - 1; i >= 0; --i)
    bits.push_back(static_cast<std::uint8_t>((value >> i) & 1u));
}

// Read `width` bits starting at `pos` as an unsigned value, MSB first.
[[nodiscard]] inline std::uint32_t read_uint(std::span<const std::uint8_t> bits,
                                             std::size_t pos, int width) {
  require(width > 0 && width <= 32, "read_uint: width out of range");
  require(pos + static_cast<std::size_t>(width) <= bits.size(),
          "read_uint: out of range");
  std::uint32_t v = 0;
  for (int i = 0; i < width; ++i) v = (v << 1) | (bits[pos + i] & 1u);
  return v;
}

// Hamming distance between equal-length bit vectors.
[[nodiscard]] inline std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                                  std::span<const std::uint8_t> b) {
  require(a.size() == b.size(), "hamming_distance: size mismatch");
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] ^ b[i]) & 1u;
  return d;
}

}  // namespace pab
