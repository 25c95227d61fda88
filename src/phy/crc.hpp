// CRC-16 for uplink packet integrity.
//
// The paper's receiver "can also use the CRC to perform a checksum on the
// received packets and request retransmissions of corrupted packets"
// (section 5.1b).  We use CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), the
// same family RFID air protocols use.
#pragma once

#include <cstdint>
#include <span>

#include "util/bitops.hpp"

namespace pab::phy {

// CRC over a bit vector, one bit per element in transmission order (the bit
// count need not be byte-aligned).
[[nodiscard]] std::uint16_t crc16_bits(std::span<const std::uint8_t> bits);

}  // namespace pab::phy
