// Unit tests for pab::util: units/dB math, bit operations, statistics, RNG,
// and the Expected error type.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace pab {
namespace {

TEST(Units, DbPowerRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 60.0}) {
    EXPECT_NEAR(db_from_power_ratio(power_ratio_from_db(db)), db, 1e-12);
  }
}

TEST(Units, DbAmplitudeRoundTrip) {
  for (double db : {-20.0, 0.0, 6.0, 40.0}) {
    EXPECT_NEAR(db_from_amplitude_ratio(amplitude_ratio_from_db(db)), db, 1e-12);
  }
}

TEST(Units, AmplitudeVsPowerConsistency) {
  // 20 dB amplitude ratio (10x) equals 20 dB power ratio (100x).
  EXPECT_NEAR(db_from_amplitude_ratio(10.0), db_from_power_ratio(100.0), 1e-12);
}

TEST(Units, SplReference) {
  // 1 uPa RMS is 0 dB re 1 uPa by definition.
  EXPECT_NEAR(spl_db_re_upa(1e-6), 0.0, 1e-12);
  // 1 Pa RMS is 120 dB re 1 uPa.
  EXPECT_NEAR(spl_db_re_upa(1.0), 120.0, 1e-9);
  EXPECT_NEAR(pressure_pa_from_spl(120.0), 1.0, 1e-9);
}

TEST(Units, Wavelength15kHz) {
  // ~10 cm at 15 kHz in water.
  EXPECT_NEAR(wavelength(15000.0), 0.0987, 0.0005);
}

TEST(Bitops, BytesBitsRoundTrip) {
  const Bytes bytes = {0xA5, 0x00, 0xFF, 0x3C};
  const Bits bits = bits_from_bytes(bytes);
  ASSERT_EQ(bits.size(), 32u);
  EXPECT_EQ(bytes_from_bits(bits), bytes);
}

TEST(Bitops, MsbFirstOrder) {
  const Bits bits = bits_from_bytes(std::vector<std::uint8_t>{0x80});
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bitops, AppendAndReadUint) {
  Bits bits;
  append_uint(bits, 0x1A5, 9);
  EXPECT_EQ(bits.size(), 9u);
  EXPECT_EQ(read_uint(bits, 0, 9), 0x1A5u);
}

TEST(Bitops, ReadUintOutOfRangeThrows) {
  Bits bits(8, 0);
  EXPECT_THROW((void)read_uint(bits, 4, 8), std::invalid_argument);
}

TEST(Bitops, HammingDistance) {
  const Bits a = {1, 0, 1, 1};
  const Bits b = {1, 1, 1, 0};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  EXPECT_THROW((void)hamming_distance(a, Bits{1}), std::invalid_argument);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_NEAR(mean(xs), 3.0, 1e-12);
  EXPECT_NEAR(variance(xs), 2.5, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, Rms) {
  const std::vector<double> xs = {3.0, -4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, Median) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_NEAR(median(odd), 3.0, 1e-12);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_NEAR(median(even), 2.5, 1e-12);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW((void)mean({}), std::invalid_argument);
  EXPECT_THROW((void)rms({}), std::invalid_argument);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  std::vector<double> xs(200000);
  rng.gaussian_into(xs, 0.0, 2.0);
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 2.0, 0.02);
}

TEST(Rng, BitsAreBalanced) {
  Rng rng(11);
  const auto bits = rng.bits(100000);
  std::size_t ones = 0;
  for (auto b : bits) ones += b;
  EXPECT_NEAR(static_cast<double>(ones) / 100000.0, 0.5, 0.01);
}

TEST(Rng, ForkIndependence) {
  Rng a(1);
  Rng child = a.fork();
  // Child stream differs from the parent continuation.
  EXPECT_NE(child.uniform(), a.uniform());
}

// The in-house engine is std::mt19937_64 word for word, through single
// calls, bulk fills and any interleaving of the two.
TEST(Rng, EngineMatchesStdMt19937_64WordForWord) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{5489}, ~std::uint64_t{0}}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(ours(), want()) << seed;
    // Fill sizes straddle the 312-word twist block.
    for (const std::size_t n : {0u, 1u, 311u, 312u, 313u, 7u, 1000u, 624u}) {
      std::vector<std::uint64_t> block(n);
      ours.fill(block);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(block[i], want()) << "seed " << seed << " fill " << n;
      ASSERT_EQ(ours(), want()) << "seed " << seed << " after fill " << n;
    }
  }
}

// [rand.predef]: the 10000th consecutive invocation of a default-constructed
// mt19937_64 produces 9981545732273789042.
TEST(Rng, EngineTenThousandthWordIsTheStandardsValue) {
  Mt19937_64 engine;
  std::vector<std::uint64_t> words(9999);
  engine.fill(words);
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

// gaussian and gaussian_into reproduce std::normal_distribution<double>(0, 1)
// on std::mt19937_64, one fresh distribution per value, rescaled: the values
// bit for bit, and the engine state afterwards.
TEST(Rng, GaussianMatchesNormalDistributionOnStdMt19937_64) {
  struct Scale {
    double mean, stddev;
  };
  const auto oracle = [](std::mt19937_64& e, Scale s) {
    return std::normal_distribution<double>(0.0, 1.0)(e) * s.stddev + s.mean;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  std::uint64_t seed = 40;
  for (const Scale s : {Scale{0.0, 1.0}, Scale{-0.0, 0.0}, Scale{3.0, 0.25}}) {
    for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 110958u}) {
      ++seed;
      Rng bulk(seed), single(seed);
      std::mt19937_64 want(seed);
      std::vector<double> got(n);
      bulk.gaussian_into(got, s.mean, s.stddev);
      for (std::size_t i = 0; i < n; ++i) {
        const double w = oracle(want, s);
        ASSERT_TRUE(same_bits(got[i], w))
            << "n " << n << " i " << i << ": " << got[i] << " vs " << w;
        ASSERT_TRUE(same_bits(single.gaussian(s.mean, s.stddev), w))
            << "n " << n << " i " << i;
      }
      // Both leave the engine where the oracle's is (700 words cross a
      // twist).
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t next = want();
        ASSERT_EQ(bulk.engine()(), next) << "n " << n;
        ASSERT_EQ(single.engine()(), next) << "n " << n;
      }
    }
  }
}

TEST(Expected, ValueAndError) {
  Expected<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.code(), ErrorCode::kOk);

  Expected<int> err(ErrorCode::kDecodeFailure, "why");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kDecodeFailure);
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_THROW((void)err.value(), std::runtime_error);
  EXPECT_NE(err.error().message().find("why"), std::string::npos);
}

TEST(Expected, ErrorCodeStrings) {
  EXPECT_STREQ(to_string(ErrorCode::kOk), "ok");
  EXPECT_STREQ(to_string(ErrorCode::kCrcMismatch), "crc mismatch");
}

TEST(Require, Throws) {
  EXPECT_THROW(require(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(require(true, "fine"));
}

}  // namespace
}  // namespace pab
