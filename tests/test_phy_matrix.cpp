// CMatrix (complex linear algebra), channel estimation and N-stream
// zero-forcing tests.
#include <gtest/gtest.h>

#include <cmath>

#include "phy/matrix.hpp"
#include "phy/metrics.hpp"
#include "util/rng.hpp"

namespace pab::phy {
namespace {

using cplx = CMatrix::cplx;

CMatrix random_matrix(std::size_t n, Rng& rng) {
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = {rng.gaussian(), rng.gaussian()};
  return m;
}

TEST(CMatrix, IdentityProperties) {
  const auto id = CMatrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(id.at(i, j), (i == j ? cplx(1.0, 0.0) : cplx{}));
  EXPECT_NEAR(id.condition_number(), 1.0, 1e-6);
}

TEST(CMatrix, MultiplyAgainstHandComputed) {
  CMatrix a(2, 2), b(2, 2);
  a.at(0, 0) = {1, 0}; a.at(0, 1) = {2, 0};
  a.at(1, 0) = {3, 0}; a.at(1, 1) = {4, 0};
  b.at(0, 0) = {0, 1}; b.at(0, 1) = {1, 0};
  b.at(1, 0) = {1, 0}; b.at(1, 1) = {0, -1};
  const auto c = a * b;
  EXPECT_EQ(c.at(0, 0), cplx(2, 1));
  EXPECT_EQ(c.at(0, 1), cplx(1, -2));
  EXPECT_EQ(c.at(1, 0), cplx(4, 3));
  EXPECT_EQ(c.at(1, 1), cplx(3, -4));
}

TEST(CMatrix, SolveRecoversKnownVector) {
  Rng rng(1);
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    const CMatrix a = random_matrix(n, rng);
    std::vector<cplx> x_true(n);
    for (auto& v : x_true) v = {rng.gaussian(), rng.gaussian()};
    const auto b = a * x_true;
    const auto x = a.solve(b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9) << "n=" << n;
  }
}

TEST(CMatrix, InverseTimesSelfIsIdentity) {
  Rng rng(2);
  const CMatrix a = random_matrix(4, rng);
  const auto prod = a * a.inverse();
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(std::abs(prod.at(i, j) - (i == j ? cplx(1, 0) : cplx{})), 0.0,
                  1e-9);
}

TEST(CMatrix, SingularMatrixThrows) {
  CMatrix a(2, 2);
  a.at(0, 0) = {1, 0}; a.at(0, 1) = {2, 0};
  a.at(1, 0) = {2, 0}; a.at(1, 1) = {4, 0};  // rank 1
  EXPECT_THROW((void)a.solve({cplx(1, 0), cplx(1, 0)}), std::invalid_argument);
}

TEST(CMatrix, PivotingHandlesZeroDiagonal) {
  CMatrix a(2, 2);
  a.at(0, 0) = {0, 0}; a.at(0, 1) = {1, 0};
  a.at(1, 0) = {1, 0}; a.at(1, 1) = {0, 0};
  const auto x = a.solve({cplx(3, 0), cplx(7, 0)});
  EXPECT_NEAR(std::abs(x[0] - cplx(7, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - cplx(3, 0)), 0.0, 1e-12);
}

TEST(CMatrix, ConditionNumberOfScaledIdentity) {
  CMatrix a = CMatrix::identity(3);
  a.at(2, 2) = {0.01, 0.0};  // singular values 1, 1, 0.01
  EXPECT_NEAR(a.condition_number(), 100.0, 1.0);
}

TEST(CMatrix, ConditionNumberDegenerateIsHuge) {
  CMatrix a(2, 2);
  a.at(0, 0) = a.at(0, 1) = a.at(1, 0) = a.at(1, 1) = {1, 0};  // rank 1
  EXPECT_GT(a.condition_number(), 1e12);
}

TEST(CMatrix, ConjugateTranspose) {
  CMatrix a(2, 3);
  a.at(0, 2) = {1, 2};
  const auto ah = a.conjugate_transpose();
  EXPECT_EQ(ah.rows(), 3u);
  EXPECT_EQ(ah.cols(), 2u);
  EXPECT_EQ(ah.at(2, 0), cplx(1, -2));
}

TEST(Mimo, ChannelEstimateRecoversGain) {
  pab::Rng rng(10);
  const cplx h_true(0.4, -0.7);
  std::vector<double> x(4000);
  std::vector<cplx> y(4000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    y[i] = h_true * x[i] + cplx(rng.gaussian(0.0, 0.05), rng.gaussian(0.0, 0.05));
  }
  const cplx h_est = estimate_channel_gain(y, x);
  EXPECT_NEAR(std::abs(h_est - h_true), 0.0, 0.01);
}

TEST(Mimo, ZeroForcingSeparatesStreams) {
  // Synthetic 2x2 collision (the paper's pair): ZF recovers both streams
  // exactly (no noise).
  pab::Rng rng(11);
  CMatrix h(2, 2);
  h.at(0, 0) = {1.0, 0.1}; h.at(0, 1) = {0.4, -0.3};
  h.at(1, 0) = {0.2, 0.6}; h.at(1, 1) = {0.9, -0.2};
  std::vector<double> x1(1000), x2(1000);
  std::vector<std::vector<cplx>> y(2, std::vector<cplx>(1000));
  for (std::size_t i = 0; i < x1.size(); ++i) {
    x1[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    x2[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    y[0][i] = h.at(0, 0) * x1[i] + h.at(0, 1) * x2[i];
    y[1][i] = h.at(1, 0) * x1[i] + h.at(1, 1) * x2[i];
  }
  const auto out = zero_force_n(y, h);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(out[0][i].real(), x1[i], 1e-9);
    EXPECT_NEAR(out[1][i].real(), x2[i], 1e-9);
  }
}

TEST(ZeroForceN, SeparatesThreeStreams) {
  Rng rng(3);
  const std::size_t n = 3, len = 500;
  const CMatrix h = random_matrix(n, rng);
  std::vector<std::vector<double>> x(n, std::vector<double>(len));
  std::vector<std::vector<cplx>> y(n, std::vector<cplx>(len));
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t j = 0; j < n; ++j)
      x[j][t] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      cplx acc{};
      for (std::size_t j = 0; j < n; ++j) acc += h.at(i, j) * x[j][t];
      y[i][t] = acc;
    }
  }
  const auto out = zero_force_n(y, h);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t t = 0; t < len; ++t)
      EXPECT_NEAR(out[j][t].real(), x[j][t], 1e-9);
}

TEST(Mimo, ZfImprovesSinrUnderInterference) {
  // The Fig. 10 mechanism in miniature: heavy cross-channel interference
  // before projection, clean after.
  pab::Rng rng(12);
  CMatrix h(2, 2);
  h.at(0, 0) = {1.0, 0.0}; h.at(0, 1) = {0.8, 0.2};
  h.at(1, 0) = {0.7, -0.1}; h.at(1, 1) = {1.0, 0.0};
  const std::size_t n = 20000;
  std::vector<double> x1(n);
  std::vector<std::vector<cplx>> y(2, std::vector<cplx>(n));
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double x2 = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const cplx noise1(rng.gaussian(0.0, 0.05), rng.gaussian(0.0, 0.05));
    const cplx noise2(rng.gaussian(0.0, 0.05), rng.gaussian(0.0, 0.05));
    y[0][i] = h.at(0, 0) * x1[i] + h.at(0, 1) * x2 + noise1;
    y[1][i] = h.at(1, 0) * x1[i] + h.at(1, 1) * x2 + noise2;
  }
  const double before = measure_sinr_db(y[0], x1);
  const double after = measure_sinr_db(zero_force_n(y, h)[0], x1);
  EXPECT_GT(after, before + 6.0);
}

TEST(ZeroForceN, RejectsShapeMismatch) {
  const CMatrix h = CMatrix::identity(2);
  std::vector<std::vector<cplx>> y(3, std::vector<cplx>(10));
  EXPECT_THROW((void)zero_force_n(y, h), std::invalid_argument);
}

}  // namespace
}  // namespace pab::phy
