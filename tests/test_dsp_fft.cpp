// FFT tests.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.hpp"
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

}  // namespace
}  // namespace pab::dsp
