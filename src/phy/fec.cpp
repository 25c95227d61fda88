#include "phy/fec.hpp"

#include "util/error.hpp"

namespace pab::phy {
namespace {

// Interleaver depth of the robust-mode pipeline.
constexpr std::size_t kInterleaverRows = 7;

// Codeword layout [p1 p2 d1 p3 d2 d3 d4] (1-indexed positions 1..7), the
// classic Hamming construction where parity bit p_i covers positions with
// bit i set in their index.
struct Codeword {
  std::uint8_t bits[7];
};

Codeword encode4(std::uint8_t d1, std::uint8_t d2, std::uint8_t d3,
                 std::uint8_t d4) {
  Codeword c{};
  c.bits[2] = d1;  // position 3
  c.bits[4] = d2;  // position 5
  c.bits[5] = d3;  // position 6
  c.bits[6] = d4;  // position 7
  c.bits[0] = d1 ^ d2 ^ d4;  // p1 covers 3,5,7
  c.bits[1] = d1 ^ d3 ^ d4;  // p2 covers 3,6,7
  c.bits[3] = d2 ^ d3 ^ d4;  // p3 covers 5,6,7
  return c;
}

}  // namespace

Bits hamming74_encode(std::span<const std::uint8_t> data) {
  require(data.size() % 4 == 0, "hamming74_encode: length not a multiple of 4");
  Bits out;
  out.reserve(hamming74_coded_size(data.size()));
  for (std::size_t i = 0; i < data.size(); i += 4) {
    const Codeword c = encode4(data[i] & 1u, data[i + 1] & 1u, data[i + 2] & 1u,
                               data[i + 3] & 1u);
    out.insert(out.end(), c.bits, c.bits + 7);
  }
  return out;
}

Bits hamming74_decode(std::span<const std::uint8_t> coded) {
  require(coded.size() % 7 == 0, "hamming74_decode: length not a multiple of 7");
  Bits out;
  out.reserve(coded.size() / 7 * 4);
  for (std::size_t i = 0; i < coded.size(); i += 7) {
    std::uint8_t w[7];
    for (int k = 0; k < 7; ++k) w[k] = coded[i + static_cast<std::size_t>(k)] & 1u;
    // Syndrome: which parity checks fail (1-indexed position of the error).
    const std::uint8_t s1 = w[0] ^ w[2] ^ w[4] ^ w[6];  // positions 1,3,5,7
    const std::uint8_t s2 = w[1] ^ w[2] ^ w[5] ^ w[6];  // positions 2,3,6,7
    const std::uint8_t s3 = w[3] ^ w[4] ^ w[5] ^ w[6];  // positions 4,5,6,7
    const int syndrome = s1 | (s2 << 1) | (s3 << 2);
    if (syndrome != 0) w[syndrome - 1] ^= 1u;  // correct the flagged position
    out.push_back(w[2]);
    out.push_back(w[4]);
    out.push_back(w[5]);
    out.push_back(w[6]);
  }
  return out;
}

Bits interleave(std::span<const std::uint8_t> bits, std::size_t rows) {
  require(rows >= 1, "interleave: rows must be >= 1");
  const std::size_t n = bits.size();
  if (rows == 1 || n == 0) return Bits(bits.begin(), bits.end());
  const std::size_t cols = (n + rows - 1) / rows;
  Bits out;
  out.reserve(n);
  // Row-major write, column-major read; positions past n are skipped, which
  // keeps the mapping a permutation of exactly n elements.
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t idx = r * cols + c;
      if (idx < n) out.push_back(bits[idx]);
    }
  return out;
}

Bits deinterleave(std::span<const std::uint8_t> bits, std::size_t rows) {
  require(rows >= 1, "deinterleave: rows must be >= 1");
  const std::size_t n = bits.size();
  if (rows == 1 || n == 0) return Bits(bits.begin(), bits.end());
  const std::size_t cols = (n + rows - 1) / rows;
  Bits out(n);
  std::size_t pos = 0;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t idx = r * cols + c;
      if (idx < n) out[idx] = bits[pos++];
    }
  return out;
}

Bits fec_protect(std::span<const std::uint8_t> data) {
  Bits padded(data.begin(), data.end());
  while (padded.size() % 4 != 0) padded.push_back(0);
  const Bits coded = hamming74_encode(padded);
  return interleave(coded, kInterleaverRows);
}

Bits fec_recover(std::span<const std::uint8_t> coded, std::size_t data_bits) {
  const Bits de = deinterleave(coded, kInterleaverRows);
  Bits decoded = hamming74_decode(de);
  require(decoded.size() >= data_bits, "fec_recover: too few bits");
  decoded.resize(data_bits);
  return decoded;
}

std::size_t fec_coded_size(std::size_t data_bits) {
  const std::size_t padded = (data_bits + 3) / 4 * 4;
  return hamming74_coded_size(padded);
}

}  // namespace pab::phy
