// Butterworth IIR filter design tests.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/iir.hpp"
#include "dsp/mixer.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

TEST(Iir, ButterworthLowpassResponse) {
  const double fs = 96000.0;
  const auto lp = butterworth_lowpass(5, 2000.0, fs);
  EXPECT_TRUE(lp.is_stable());
  // -3 dB at cutoff, maximally flat below, steep above.
  EXPECT_NEAR(std::abs(lp.response(2000.0, fs)), std::sqrt(0.5), 0.02);
  EXPECT_NEAR(std::abs(lp.response(100.0, fs)), 1.0, 0.01);
  EXPECT_LT(std::abs(lp.response(8000.0, fs)), 0.01);
}

TEST(Iir, OddOrdersHaveFirstOrderSection) {
  const auto lp3 = butterworth_lowpass(3, 1000.0, 48000.0);
  EXPECT_EQ(lp3.sections().size(), 2u);  // one biquad + one first-order
  const auto lp4 = butterworth_lowpass(4, 1000.0, 48000.0);
  EXPECT_EQ(lp4.sections().size(), 2u);  // two biquads
}

TEST(Iir, ComplexFilteringMatchesRealOnRealInput) {
  const double fs = 48000.0;
  const auto lp = butterworth_lowpass(4, 3000.0, fs);
  const Signal in = make_tone(1000.0, 1.0, 0.01, fs);
  std::vector<cplx> cin(in.samples.size());
  for (std::size_t i = 0; i < cin.size(); ++i) cin[i] = {in.samples[i], 0.0};
  const auto real_out = lp.filter(std::span<const double>(in.samples));
  const auto cplx_out = lp.filter(std::span<const cplx>(cin));
  for (std::size_t i = 0; i < real_out.size(); ++i) {
    EXPECT_NEAR(cplx_out[i].real(), real_out[i], 1e-12);
    EXPECT_NEAR(cplx_out[i].imag(), 0.0, 1e-12);
  }
}

TEST(Iir, InvalidOrderThrows) {
  EXPECT_THROW((void)butterworth_lowpass(0, 1000.0, 48000.0),
               std::invalid_argument);
  EXPECT_THROW((void)butterworth_lowpass(13, 1000.0, 48000.0),
               std::invalid_argument);
  EXPECT_THROW((void)butterworth_lowpass(4, 30000.0, 48000.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace pab::dsp
