// Line coding and framing tests: CRC, FM0, PWM, packets.
#include <gtest/gtest.h>

#include "phy/cdma.hpp"
#include "phy/crc.hpp"
#include "phy/fm0.hpp"
#include "phy/packet.hpp"
#include "phy/pwm.hpp"

#include <algorithm>
#include <vector>
#include "bytes_oracle.hpp"
#include "signal_helpers.hpp"
#include "util/rng.hpp"

namespace pab::phy {
namespace {

TEST(Crc, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::string s = "123456789";
  const std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(testing::crc16_ccitt(bytes), 0x29B1);
  EXPECT_EQ(crc16_bits(testing::bits_from_bytes(bytes)), 0x29B1);
}

TEST(Crc, BitAndByteAgree) {
  pab::Rng rng(1);
  const auto bytes = rng.bytes(32);
  EXPECT_EQ(testing::crc16_ccitt(bytes),
            crc16_bits(testing::bits_from_bytes(bytes)));
}

TEST(Crc, DetectsSingleBitFlips) {
  pab::Rng rng(2);
  auto bits = rng.bits(64);
  const auto crc = crc16_bits(bits);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] ^= 1;
    EXPECT_NE(crc16_bits(bits), crc) << "flip at " << i;
    bits[i] ^= 1;
  }
}

TEST(Fm0, EncodeBasics) {
  // Starting level -1: first chip of the first bit is +1 (boundary flip).
  const Bits bits = {1, 0};
  const Chips chips = fm0_encode(bits, -1);
  ASSERT_EQ(chips.size(), 4u);
  // bit 1: no mid flip -> (+1, +1); bit 0: mid flip -> (-1, +1).
  EXPECT_EQ(chips[0], 1);
  EXPECT_EQ(chips[1], 1);
  EXPECT_EQ(chips[2], -1);
  EXPECT_EQ(chips[3], 1);
}

TEST(Fm0, TransitionAtEveryBitBoundary) {
  pab::Rng rng(3);
  const auto bits = rng.bits(200);
  const auto chips = fm0_encode(bits);
  for (std::size_t b = 1; b < bits.size(); ++b) {
    // Last chip of bit b-1 differs from first chip of bit b.
    EXPECT_NE(chips[2 * b - 1], chips[2 * b]) << "boundary " << b;
  }
}

TEST(Fm0, HardDecodeRoundTrip) {
  pab::Rng rng(4);
  const auto bits = rng.bits(128);
  const auto chips = fm0_encode(bits);
  EXPECT_EQ(testing::fm0_decode_hard(chips), bits);
}

TEST(Fm0, MlDecodeNoiseless) {
  pab::Rng rng(5);
  const auto bits = rng.bits(64);
  const auto chips = fm0_encode(bits);
  std::vector<double> soft(chips.begin(), chips.end());
  EXPECT_EQ(fm0_decode_ml(soft), bits);
}

TEST(Fm0, MlDecodeBeatsHardAtLowSnr) {
  // The Viterbi sequence decoder must not be worse than chip-wise slicing.
  pab::Rng rng(6);
  std::size_t ml_errors = 0, hard_errors = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto bits = rng.bits(100);
    const auto chips = fm0_encode(bits);
    std::vector<double> soft(chips.size());
    Chips noisy(chips.size());
    for (std::size_t i = 0; i < chips.size(); ++i) {
      soft[i] = chips[i] + rng.gaussian(0.0, 1.0);
      noisy[i] = soft[i] >= 0 ? 1 : -1;
    }
    const auto ml = fm0_decode_ml(soft);
    const auto hard = testing::fm0_decode_hard(noisy);
    ml_errors += hamming_distance(bits, ml);
    hard_errors += hamming_distance(bits, hard);
  }
  EXPECT_LT(ml_errors, hard_errors);
}

TEST(Fm0, OddChipCountThrows) {
  std::vector<double> soft(3, 0.0);
  EXPECT_THROW((void)fm0_decode_ml(soft), std::invalid_argument);
}

TEST(Pwm, EncodeLengths) {
  PwmParams p{0.001};
  const double fs = 96000.0;
  const auto w0 = pwm_encode(Bits{0}, p, fs);
  const auto w1 = pwm_encode(Bits{1}, p, fs);
  // Lead-in (1) + sync (2 units) + symbol (2 or 3) + end delimiter (2).
  EXPECT_EQ(w0.size(), static_cast<std::size_t>(7 * 0.001 * fs));
  EXPECT_EQ(w1.size(), static_cast<std::size_t>(8 * 0.001 * fs));
}

TEST(Pwm, OneIsTwiceAsLongAsZero) {
  // Paper section 5.1a: "the '1' bit is twice as long as the '0' bit".
  PwmParams p;
  std::size_t high0 = 0, high1 = 0;
  for (auto v : pwm_encode(Bits{0}, p, 96000.0)) high0 += v;
  for (auto v : pwm_encode(Bits{1}, p, 96000.0)) high1 += v;
  // Subtract the sync and delimiter pulses (1 unit high each).
  const auto unit = static_cast<std::size_t>(p.unit_s * 96000.0);
  EXPECT_EQ(high1 - 2 * unit, 2 * (high0 - 2 * unit));
}

TEST(Pwm, DecodeRoundTrip) {
  pab::Rng rng(7);
  PwmParams p{2e-3};
  const auto bits = rng.bits(40);
  const auto wave = pwm_encode(bits, p, 96000.0);
  EXPECT_EQ(pwm_decode(wave, p, 96000.0), bits);
}

TEST(Pwm, DecodeToleratesTimingJitter) {
  PwmParams p{2e-3};
  const Bits bits = {1, 0, 1, 1, 0};
  auto wave = pwm_encode(bits, p, 96000.0);
  // Decode with a 10% slower assumed clock: still inside tolerance.
  PwmParams skewed{2e-3 * 1.1};
  EXPECT_EQ(pwm_decode(wave, skewed, 96000.0), bits);
}

TEST(Packet, DownlinkRoundTrip) {
  DownlinkQuery q;
  q.address = 0x42;
  q.command = Command::kReadPh;
  q.argument = 7;
  const auto bits = q.to_bits();
  EXPECT_EQ(bits.size(), 9u + 32u);
  const auto back = DownlinkQuery::from_bits(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->address, 0x42);
  EXPECT_EQ(back->command, Command::kReadPh);
  EXPECT_EQ(back->argument, 7);
}

TEST(Packet, DownlinkFindsPreambleAfterNoise) {
  DownlinkQuery q;
  q.address = 0x01;
  Bits noisy = {1, 1, 0, 1, 0};  // garbage prefix
  const auto qb = q.to_bits();
  noisy.insert(noisy.end(), qb.begin(), qb.end());
  const auto back = DownlinkQuery::from_bits(noisy);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->address, 0x01);
}

TEST(Packet, DownlinkChecksumRejectsCorruption) {
  DownlinkQuery q;
  q.address = 0x10;
  auto bits = q.to_bits();
  bits[12] ^= 1;  // corrupt the address field
  EXPECT_FALSE(DownlinkQuery::from_bits(bits).has_value());
}

TEST(Packet, UplinkRoundTrip) {
  pab::Rng rng(8);
  UplinkPacket p;
  p.node_id = 9;
  p.payload = rng.bytes(16);
  const auto bits = p.to_bits();
  EXPECT_EQ(bits.size(), UplinkPacket::bits_on_air(16));
  const auto back = UplinkPacket::from_bits(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node_id, 9);
  EXPECT_EQ(back->payload, p.payload);
}

TEST(Packet, UplinkCrcRejectsBitErrors) {
  UplinkPacket p;
  p.node_id = 1;
  p.payload = {0xAB, 0xCD};
  auto bits = p.to_bits();
  bits[bits.size() / 2] ^= 1;
  EXPECT_FALSE(UplinkPacket::from_bits(bits).has_value());
}

TEST(Packet, UplinkTruncatedReturnsNullopt) {
  UplinkPacket p;
  p.payload = {1, 2, 3, 4};
  auto bits = p.to_bits();
  bits.resize(bits.size() - 8);
  EXPECT_FALSE(UplinkPacket::from_bits(bits).has_value());
}

TEST(Packet, BitsOnAirAccounting) {
  // preamble(12) + header(16) + payload(8*N) + crc(16).
  EXPECT_EQ(UplinkPacket::bits_on_air(0), 44u);
  EXPECT_EQ(UplinkPacket::bits_on_air(4), 76u);
  EXPECT_EQ(UplinkPacket::bits_on_air(4, false), 64u);
}


TEST(Cdma, WalshCodesAreOrthogonal) {
  for (std::size_t len : {2u, 4u, 8u, 16u}) {
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t j = 0; j < len; ++j) {
        const auto a = walsh_code(len, i);
        const auto b = walsh_code(len, j);
        double dot = 0.0;
        for (std::size_t k = 0; k < len; ++k)
          dot += static_cast<double>(a[k]) * static_cast<double>(b[k]);
        if (i == j) EXPECT_NEAR(dot, static_cast<double>(len), 1e-12);
        else EXPECT_NEAR(dot, 0.0, 1e-12) << len << " " << i << " " << j;
      }
    }
  }
}

TEST(Cdma, SpreadDespreadRoundTrip) {
  pab::Rng rng(9);
  const auto bits = rng.bits(64);
  const auto chips = fm0_encode(bits);
  const auto code = walsh_code(8, 5);
  const auto spread = cdma_spread(chips, code);
  EXPECT_EQ(spread.size(), chips.size() * 8);
  std::vector<double> rx(spread.begin(), spread.end());
  const auto soft = cdma_despread(rx, code);
  EXPECT_EQ(fm0_decode_ml(soft), bits);
}

TEST(Cdma, TwoSynchronousUsersSeparate) {
  pab::Rng rng(10);
  const auto bits1 = rng.bits(50);
  const auto bits2 = rng.bits(50);
  const auto c1 = walsh_code(4, 1);
  const auto c2 = walsh_code(4, 2);
  const auto s1 = cdma_spread(fm0_encode(bits1), c1);
  const auto s2 = cdma_spread(fm0_encode(bits2), c2);
  std::vector<double> rx(s1.size());
  for (std::size_t i = 0; i < rx.size(); ++i)
    rx[i] = static_cast<double>(s1[i]) + static_cast<double>(s2[i]);
  EXPECT_EQ(fm0_decode_ml(cdma_despread(rx, c1)), bits1);
  EXPECT_EQ(fm0_decode_ml(cdma_despread(rx, c2)), bits2);
}

TEST(Cdma, AsynchronousUsersInterfere) {
  // Cyclic shifts of Walsh rows can remain orthogonal (structure), but
  // *streaming* misalignment -- a chip offset across data-symbol boundaries,
  // where the interferer's data changes mid-window -- does not: the weak
  // user takes real bit errors once the interferer is a few dB stronger.
  pab::Rng rng(12);
  const auto c1 = walsh_code(4, 1);
  const auto c2 = walsh_code(4, 2);
  std::size_t sync_errors = 0, async_errors = 0, total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto bits1 = rng.bits(80);
    const auto bits2 = rng.bits(80);
    const auto s1 = cdma_spread(fm0_encode(bits1), c1);
    const auto s2 = cdma_spread(fm0_encode(bits2), c2);
    for (bool async : {false, true}) {
      std::vector<double> rx(s1.size());
      for (std::size_t i = 0; i < rx.size(); ++i) {
        const double interferer =
            async ? (i >= 1 ? static_cast<double>(s2[i - 1]) : 0.0)
                  : static_cast<double>(s2[i]);
        rx[i] = static_cast<double>(s1[i]) + 5.0 * interferer;
      }
      const auto decoded = fm0_decode_ml(cdma_despread(rx, c1));
      (async ? async_errors : sync_errors) += hamming_distance(bits1, decoded);
    }
    total += bits1.size();
  }
  EXPECT_EQ(sync_errors, 0u);  // synchronous Walsh users stay orthogonal
  EXPECT_GT(static_cast<double>(async_errors) / static_cast<double>(total),
            0.05);  // asynchronous arrival breaks it
}

TEST(Cdma, CrossCorrelationZeroAtAlignment) {
  const auto a = walsh_code(8, 3);
  const auto b = walsh_code(8, 5);
  EXPECT_NEAR(code_cross_correlation(a, b, 0), 0.0, 1e-12);
  EXPECT_NEAR(code_cross_correlation(a, a, 0), 1.0, 1e-12);
}

TEST(Cdma, BandwidthScalesWithChipRate) {
  EXPECT_NEAR(occupied_bandwidth_hz(1000.0), 2000.0, 1e-9);
  // Spreading by 4 at constant data rate quadruples the occupied band.
  EXPECT_NEAR(occupied_bandwidth_hz(4000.0) / occupied_bandwidth_hz(1000.0),
              4.0, 1e-12);
}

TEST(Cdma, InvalidArgumentsThrow) {
  EXPECT_THROW((void)walsh_code(6, 0), std::invalid_argument);
  EXPECT_THROW((void)walsh_code(8, 8), std::invalid_argument);
}

}  // namespace
}  // namespace pab::phy
