// FFT tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "fftconv_oracle.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Fft, RejectsNonPow2) {
  const std::size_t planned = fft_plan_cache_size();
  EXPECT_THROW((void)fft_plan(3), std::invalid_argument);
  EXPECT_EQ(fft_plan_cache_size(), planned);  // no entry for a rejected size
  std::vector<cplx> v(4);
  EXPECT_THROW(fft_plan(8).transform(v), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToFlat) {
  std::vector<cplx> v(8, cplx{});
  v[0] = 1.0;
  fft_plan(8).transform(v);
  for (const auto& x : v) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

TEST(Fft, InverseRoundTrip) {
  pab::Rng rng(3);
  std::vector<cplx> v(256);
  for (auto& x : v) x = {rng.gaussian(), rng.gaussian()};
  std::vector<cplx> back = v;
  const FftPlan& plan = fft_plan(back.size());
  plan.transform(back);
  plan.transform(back, /*inverse=*/true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i].real(), v[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), v[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  pab::Rng rng(5);
  std::vector<cplx> v(512);
  for (auto& x : v) x = {rng.gaussian(), rng.gaussian()};
  double time_energy = 0.0;
  for (const auto& x : v) time_energy += std::norm(x);
  fft_plan(v.size()).transform(v);
  double freq_energy = 0.0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(v.size()), time_energy,
              time_energy * 1e-10);
}

TEST(Fft, SinglebinTone) {
  // A tone at exactly bin 32 of a 1024-point FFT.
  const double fs = 1024.0;
  std::vector<cplx> x(1024);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(kTwoPi * 32.0 * static_cast<double>(i) / fs);
  fft_plan(x.size()).transform(x);
  EXPECT_NEAR(std::abs(x[32]), 512.0, 1e-6);
  EXPECT_NEAR(std::abs(x[33]), 0.0, 1e-6);
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// Inputs that stress the last bit: Gaussian values, signed zeros among
// them, subnormals, and magnitudes near 1e+300 and 1e-300.
std::vector<std::vector<cplx>> butterfly_inputs(std::size_t n, Rng& rng) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<std::vector<cplx>> out(5, std::vector<cplx>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.gaussian(), b = rng.gaussian();
    out[0][i] = {a, b};
    const double z = (i % 3 == 0) ? -0.0 : 0.0;
    out[1][i] = (i % 5 == 1) ? cplx(a, z) : cplx(z, (i % 2) ? -0.0 : 0.0);
    out[2][i] = {tiny * static_cast<double>(rng.uniform_int(-4096, 4096)),
                 tiny * static_cast<double>(rng.uniform_int(-4096, 4096))};
    out[3][i] = {1e300 * a, -1e300 * b};
    out[4][i] = {1e-300 * a, 1e-300 * b};
  }
  return out;
}

// The dispatched butterflies are bit-identical on every table, and equal to
// the strided-twiddle transform the per-stage table replaced.
TEST(Fft, ButterfliesMatchTheStridedTransformBitForBitOnEveryTable) {
  Rng rng(11);
  for (std::size_t n = 2; n <= (std::size_t{1} << 16); n <<= 1) {
    const testing::OracleFft oracle(n);
    for (const auto& input : butterfly_inputs(n, rng)) {
      for (const bool inverse : {false, true}) {
        std::vector<cplx> want = input;
        oracle.transform(want, inverse);
        for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2,
                                    simd::Isa::kNeon}) {
          const simd::DispatchGuard guard(isa, true);
          std::vector<cplx> got = input;
          fft_plan(n).transform(got, inverse);
          EXPECT_TRUE(same_bits(want, got))
              << "n " << n << " inverse " << inverse << " table "
              << simd::isa_name(simd::active());
        }
      }
    }
  }
}

// One cached plan serves concurrent transforms: 4 threads run forward and
// inverse transforms on their own buffers (under the vector table where the
// host has one) and reproduce a serial run bit for bit.
TEST(Fft, SharedPlanTransformsAgreeAcrossThreads) {
  const simd::DispatchGuard guard(simd::Isa::kAvx2, true);
  constexpr std::size_t kN = 4096, kThreads = 4, kRounds = 8;
  const FftPlan& plan = fft_plan(kN);
  Rng rng(13);
  std::vector<std::vector<cplx>> inputs(kThreads, std::vector<cplx>(kN));
  for (auto& in : inputs)
    for (auto& x : in) x = {rng.gaussian(), rng.gaussian()};
  const auto run = [&](std::size_t t) {
    std::vector<cplx> v = inputs[t];
    for (std::size_t r = 0; r < kRounds; ++r) {
      plan.transform(v);
      plan.transform(v, /*inverse=*/true);
    }
    return v;
  };
  std::vector<std::vector<cplx>> serial(kThreads), parallel(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) serial[t] = run(t);
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] { parallel[t] = run(t); });
    for (auto& w : workers) w.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_TRUE(same_bits(serial[t], parallel[t])) << "thread " << t;
}

}  // namespace
}  // namespace pab::dsp
