// Equality contract of the dsp::simd dispatch layer and the overlap-save FFT
// convolution (DESIGN.md §12): under forced scalar dispatch every kernel is
// bit-identical to the reference loop it replaced; under a vector ISA or the
// FFT path results agree within 1e-9 relative.  The suite runs unchanged (and
// collapses to all-exact) when PAB_SIMD=off forces scalar at startup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "channel/propagation.hpp"
#include "dsp/arena.hpp"
#include "dsp/fft.hpp"
#include "dsp/fftconv.hpp"
#include "dsp/simd.hpp"
#include "fftconv_oracle.hpp"
#include "obs/metrics.hpp"
#include "phy/fm0.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

using simd::DispatchGuard;
using simd::Isa;

// The vector ISA the host auto-detected at startup (kScalar under
// PAB_SIMD=off or on hosts without AVX2/NEON -- the tolerance cases then
// compare scalar against scalar, which is fine).
Isa host_isa() {
  static const Isa isa = simd::active();
  return isa;
}

std::vector<double> random_vec(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(0.0, scale);
  return v;
}

std::vector<cplx> random_cvec(Rng& rng, std::size_t n) {
  std::vector<cplx> v(n);
  for (auto& x : v) x = {rng.gaussian(), rng.gaussian()};
  return v;
}

void expect_close(double want, double got, double ref_scale,
                  const char* what, std::size_t i = 0) {
  const double tol = 1e-9 * std::max(ref_scale, 1.0);
  EXPECT_NEAR(want, got, tol) << what << " sample " << i;
}

double max_abs(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

// ---- scalar table == reference loops, bit for bit ---------------------------

TEST(SimdDispatch, ScalarTableMatchesReferenceLoopsExactly) {
  Rng rng(1);
  const auto a = random_vec(rng, 257);
  const auto b = random_vec(rng, 257);
  const auto cx = random_cvec(rng, 191);

  const DispatchGuard guard(Isa::kScalar, false);

  double want_sum = 0.0;
  for (double v : a) want_sum += v;
  EXPECT_EQ(want_sum, simd::sum(a));

  const double mean = want_sum / static_cast<double>(a.size());
  double want_cov = 0.0, want_var = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xc = a[i] - mean;
    want_cov += xc * b[i];
    want_var += xc * xc;
  }
  const auto [cov, var] = simd::centered_cov_var(a, b, mean);
  EXPECT_EQ(want_cov, cov);
  EXPECT_EQ(want_var, var);

  const cplx g(0.3, -0.4);
  auto want_axpy = cx;
  for (std::size_t i = 0; i < cx.size(); ++i) want_axpy[i] += g * cx[i];
  auto got_axpy = cx;
  simd::axpy(g, cx, got_axpy);
  EXPECT_EQ(want_axpy, got_axpy);

  std::vector<double> want_mag(cx.size()), got_mag(cx.size());
  for (std::size_t i = 0; i < cx.size(); ++i) want_mag[i] = std::abs(cx[i]);
  simd::magnitude(cx, got_mag);
  EXPECT_EQ(want_mag, got_mag);

  const double w = kTwoPi * 18500.0 / 96000.0;
  std::vector<cplx> want_down(a.size()), got_down(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ph = w * static_cast<double>(i);
    want_down[i] = 2.0 * a[i] * cplx(std::cos(ph), -std::sin(ph));
  }
  simd::mix_down(a, w, got_down);
  EXPECT_EQ(want_down, got_down);

  std::vector<double> want_up(cx.size()), got_up(cx.size());
  for (std::size_t i = 0; i < cx.size(); ++i) {
    const double ph = w * static_cast<double>(i);
    want_up[i] = cx[i].real() * std::cos(ph) - cx[i].imag() * std::sin(ph);
  }
  simd::mix_up(cx, w, got_up);
  EXPECT_EQ(want_up, got_up);

  const auto soft = random_vec(rng, 2 * 77);
  std::vector<double> ws(77), wd(77), gs(77), gd(77);
  for (std::size_t t = 0; t < 77; ++t) {
    ws[t] = soft[2 * t] + soft[2 * t + 1];
    wd[t] = soft[2 * t] - soft[2 * t + 1];
  }
  simd::chip_sum_diff(soft, gs, gd);
  EXPECT_EQ(ws, gs);
  EXPECT_EQ(wd, gd);
}

// ---- vector tables within 1e-9 relative of scalar ---------------------------

TEST(SimdDispatch, VectorKernelsMatchScalarWithinTolerance) {
  Rng rng(2);
  // Odd sizes exercise the vector tails.
  const auto a = random_vec(rng, 1001);
  const auto b = random_vec(rng, 1001);
  const auto cx = random_cvec(rng, 773);
  const auto ct = random_cvec(rng, 773);
  const double w = kTwoPi * 18500.0 / 96000.0;

  double s_sum;
  simd::CovVar s_cv{};
  std::vector<double> s_mag(cx.size()), s_up(cx.size());
  std::vector<cplx> s_caxpy, s_down(a.size()), s_cmul(cx.size());
  {
    const DispatchGuard guard(Isa::kScalar, false);
    s_sum = simd::sum(a);
    s_cv = simd::centered_cov_var(a, b, s_sum / 1001.0);
    s_caxpy = ct;
    simd::axpy(cplx(0.3, -0.4), cx, s_caxpy);
    simd::magnitude(cx, s_mag);
    simd::cmul(cx, ct, s_cmul);
    simd::mix_down(a, w, s_down);
    simd::mix_up(cx, w, s_up);
  }

  const DispatchGuard guard(host_isa(), true);
  expect_close(s_sum, simd::sum(a), max_abs(a) * 1001, "sum");
  const auto v_cv = simd::centered_cov_var(a, b, s_sum / 1001.0);
  expect_close(s_cv.cov, v_cv.cov, std::abs(s_cv.cov) + 1001, "cov");
  expect_close(s_cv.var, v_cv.var, s_cv.var, "var");

  auto v_caxpy = ct;
  simd::axpy(cplx(0.3, -0.4), cx, v_caxpy);
  for (std::size_t i = 0; i < v_caxpy.size(); ++i) {
    expect_close(s_caxpy[i].real(), v_caxpy[i].real(), 10.0, "caxpy.re", i);
    expect_close(s_caxpy[i].imag(), v_caxpy[i].imag(), 10.0, "caxpy.im", i);
  }

  std::vector<double> v_mag(cx.size());
  simd::magnitude(cx, v_mag);
  for (std::size_t i = 0; i < v_mag.size(); ++i)
    expect_close(s_mag[i], v_mag[i], s_mag[i], "magnitude", i);

  std::vector<cplx> v_cmul(cx.size());
  simd::cmul(cx, ct, v_cmul);
  for (std::size_t i = 0; i < v_cmul.size(); ++i) {
    expect_close(s_cmul[i].real(), v_cmul[i].real(), 10.0, "cmul.re", i);
    expect_close(s_cmul[i].imag(), v_cmul[i].imag(), 10.0, "cmul.im", i);
  }

  std::vector<cplx> v_down(a.size());
  simd::mix_down(a, w, v_down);
  for (std::size_t i = 0; i < v_down.size(); ++i) {
    expect_close(s_down[i].real(), v_down[i].real(), 10.0, "mix_down.re", i);
    expect_close(s_down[i].imag(), v_down[i].imag(), 10.0, "mix_down.im", i);
  }
  std::vector<double> v_up(cx.size());
  simd::mix_up(cx, w, v_up);
  for (std::size_t i = 0; i < v_up.size(); ++i)
    expect_close(s_up[i], v_up[i], 10.0, "mix_up", i);
}

TEST(SimdDispatch, GuardRestoresPreviousState) {
  const Isa before = simd::active();
  const bool conv_before = simd::fftconv_enabled();
  {
    const DispatchGuard guard(Isa::kScalar, false);
    EXPECT_EQ(simd::active(), Isa::kScalar);
    EXPECT_FALSE(simd::enabled());
    EXPECT_FALSE(simd::fftconv_enabled());
  }
  EXPECT_EQ(simd::active(), before);
  EXPECT_EQ(simd::fftconv_enabled(), conv_before);
}

// ---- FM0 ML decoder: vector branch agrees with the reference Viterbi --------

TEST(SimdDispatch, Fm0MlDecodeAgreesAcrossDispatch) {
  Rng rng(3);
  for (const double sigma : {0.2, 0.6, 1.2}) {
    const auto bits = rng.bits(600);
    const auto chips = phy::fm0_encode(bits);
    std::vector<double> soft(chips.size());
    for (std::size_t i = 0; i < soft.size(); ++i)
      soft[i] = chips[i] + rng.gaussian(0.0, sigma);
    Bits scalar_bits, vector_bits;
    {
      const DispatchGuard guard(Isa::kScalar, false);
      scalar_bits = phy::fm0_decode_ml(soft);
    }
    {
      const DispatchGuard guard(host_isa(), true);
      vector_bits = phy::fm0_decode_ml(soft);
    }
    EXPECT_EQ(scalar_bits, vector_bits) << "sigma " << sigma;
  }
}

// ---- overlap-save FFT convolution -------------------------------------------

TEST(FftConv, FullConvolutionMatchesNaiveWithinTolerance) {
  Rng rng(4);
  const auto ch = random_cvec(rng, 21);
  const auto cx = random_cvec(rng, 500);
  std::vector<cplx> cnaive(cx.size() + ch.size() - 1, cplx{});
  for (std::size_t i = 0; i < cx.size(); ++i)
    for (std::size_t k = 0; k < ch.size(); ++k) cnaive[i + k] += cx[i] * ch[k];
  std::vector<cplx> cgot(cnaive.size());
  fftconv_full(ch, cx, cgot);
  for (std::size_t i = 0; i < cnaive.size(); ++i) {
    expect_close(cnaive[i].real(), cgot[i].real(), 40.0, "cfull.re", i);
    expect_close(cnaive[i].imag(), cgot[i].imag(), 40.0, "cfull.im", i);
  }
}

TEST(FftConv, PlanCacheReusesPlansAcrossCalls) {
  Rng rng(6);
  const auto h = random_cvec(rng, 64);
  const auto x = random_cvec(rng, 600);
  std::vector<cplx> y(x.size() + h.size() - 1);
  fftconv_full(h, x, y);
  const std::size_t planned = fft_plan_cache_size();
  EXPECT_GE(planned, 1u);
  fftconv_full(h, x, y);  // same sizes -> no new plan
  EXPECT_EQ(fft_plan_cache_size(), planned);
}

bool same_bits(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// Copying the blocks inside the leading run of identical samples gives the
// bits of transforming every block (the oracle), on every table.  Inputs: a
// constant at lengths around multiples of the block advance S, a constant
// run then a step, alternating +0.0/-0.0 imaginary parts, and a run of
// (0, +0.0) then (0, -0.0), which compares equal but convolves to other
// bits.
TEST(FftConv, RepeatedBlocksMatchTheBlockByBlockOracleBitForBit) {
  Rng rng(8);
  for (const std::size_t nh : {21u, 100u}) {
    const auto h = random_cvec(rng, nh);
    // Block size as fftconv_full picks it for these lengths (>= 256).
    const std::size_t B = next_pow2(std::max<std::size_t>(4 * nh, 256));
    const std::size_t S = B - nh + 1;
    const cplx c(0.3, -1.7);
    std::vector<std::vector<cplx>> inputs;
    for (std::size_t m = 1; m <= 6; ++m) {
      for (const std::size_t base : {m * S, m * S + nh - 1, m * S + B}) {
        for (std::size_t n = base - 2; n <= base + 2; ++n)
          inputs.emplace_back(n, c);
      }
      std::vector<cplx> step(7 * S, c);
      std::fill(step.begin() + static_cast<std::ptrdiff_t>(m * S + nh),
                step.end(), cplx(-0.5, 0.25));
      inputs.push_back(step);
    }
    std::vector<cplx> alternating(5 * S), signed_zero_run(5 * S);
    for (std::size_t i = 0; i < alternating.size(); ++i) {
      alternating[i] = {0.0, (i % 2) ? -0.0 : 0.0};
      signed_zero_run[i] = {0.0, i < 2 * S ? 0.0 : -0.0};
    }
    inputs.push_back(alternating);
    inputs.push_back(signed_zero_run);
    for (const auto& x : inputs) {
      const auto want = testing::fftconv_full_oracle(h, x);
      for (const Isa isa : {Isa::kScalar, host_isa()}) {
        const DispatchGuard guard(isa, true);
        std::vector<cplx> got(want.size());
        fftconv_full(h, x, got);
        EXPECT_TRUE(same_bits(want, got))
            << "nh " << nh << " n " << x.size() << " table "
            << simd::isa_name(simd::active());
      }
    }
  }
}

// dsp.fftconv.blocks counts every overlap-save block of a call and
// dsp.fftconv.blocks_reused the copied ones: of a constant input's blocks,
// those whose window lies unpadded inside x, less the one computed.
TEST(FftConv, BlockCountersCountEveryAndEveryCopiedBlock) {
  Rng rng(9);
  auto& reg = obs::MetricRegistry::global();
  const auto h = random_cvec(rng, 21);  // B = 256, S = 236
  const std::size_t B = 256, S = 236;
  for (const std::size_t n : {300u, 600u, 3000u}) {
    std::size_t blocks = 0, in_run = 0;
    for (std::size_t pos = 0; pos < n + 20; pos += S, ++blocks)
      in_run += (pos >= 20 && pos - 20 + B <= n) ? 1 : 0;
    const std::vector<cplx> x(n, cplx(1.25, 0.0));
    std::vector<cplx> y(n + 20);
    const std::uint64_t blocks0 = reg.counter("dsp.fftconv.blocks").value();
    const std::uint64_t reused0 =
        reg.counter("dsp.fftconv.blocks_reused").value();
    fftconv_full(h, x, y);
    EXPECT_EQ(reg.counter("dsp.fftconv.blocks").value() - blocks0, blocks)
        << n;
    EXPECT_EQ(reg.counter("dsp.fftconv.blocks_reused").value() - reused0,
              in_run > 0 ? in_run - 1 : 0)
        << n;
  }
}

// ---- channel tap convolution through the FFT path ---------------------------

TEST(FftConv, ApplyTapsFftPathMatchesDirectAccumulation) {
  Rng rng(7);
  const double fs = 96000.0;
  std::vector<channel::PathTap> taps;
  for (int k = 0; k < 12; ++k) {
    channel::PathTap t;
    t.delay_s = (1.0 + 0.37 * k) * 1e-3;  // fractional sample delays
    t.gain = 0.8 / (1.0 + k);
    taps.push_back(t);
  }
  // Baseband signal with per-tap carrier phase rotations.
  const auto cx = random_cvec(rng, 4000);
  const std::size_t cout_len = channel::apply_taps_length(cx.size(), fs, taps);
  std::vector<cplx> cdirect(cout_len), cfft(cout_len);
  {
    const DispatchGuard guard(Isa::kScalar, false);
    channel::apply_taps_baseband_into(cx, fs, 18500.0, taps, cdirect);
  }
  {
    const DispatchGuard guard(host_isa(), true);
    Arena arena;
    channel::apply_taps_baseband_into(cx, fs, 18500.0, taps, cfft, arena);
  }
  for (std::size_t i = 0; i < cout_len; ++i) {
    expect_close(cdirect[i].real(), cfft[i].real(), 10.0, "taps_bb.re", i);
    expect_close(cdirect[i].imag(), cfft[i].imag(), 10.0, "taps_bb.im", i);
  }
}

}  // namespace
}  // namespace pab::dsp
