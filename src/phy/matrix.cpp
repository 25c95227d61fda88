#include "phy/matrix.hpp"

#include <cmath>

namespace pab::phy {

CMatrix CMatrix::operator*(const CMatrix& rhs) const {
  require(cols_ == rhs.rows_, "CMatrix: dimension mismatch in multiply");
  CMatrix out(rows_, rhs.cols_);
  for (std::size_t c = 0; c < rhs.cols_; ++c) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx r = rhs.at(k, c);
      if (r == cplx{}) continue;
      for (std::size_t i = 0; i < rows_; ++i) out.at(i, c) += at(i, k) * r;
    }
  }
  return out;
}

std::vector<CMatrix::cplx> CMatrix::operator*(const std::vector<cplx>& v) const {
  require(v.size() == cols_, "CMatrix: vector dimension mismatch");
  std::vector<cplx> out(rows_);
  for (std::size_t k = 0; k < cols_; ++k)
    for (std::size_t i = 0; i < rows_; ++i) out[i] += at(i, k) * v[k];
  return out;
}

CMatrix CMatrix::conjugate_transpose() const {
  CMatrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out.at(j, i) = std::conj(at(i, j));
  return out;
}

CMatrix::Lu CMatrix::factorize() const {
  require(rows_ == cols_, "CMatrix: LU needs a square matrix");
  Lu f{*this, {}, false};
  const std::size_t n = rows_;
  f.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t pivot = k;
    double best = std::abs(f.lu.at(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(f.lu.at(i, k));
      if (m > best) { best = m; pivot = i; }
    }
    if (best < 1e-300) { f.singular = true; return f; }
    if (pivot != k) {
      std::swap(f.perm[k], f.perm[pivot]);
      for (std::size_t c = 0; c < n; ++c)
        std::swap(f.lu.at(k, c), f.lu.at(pivot, c));
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const cplx factor = f.lu.at(i, k) / f.lu.at(k, k);
      f.lu.at(i, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c)
        f.lu.at(i, c) -= factor * f.lu.at(k, c);
    }
  }
  return f;
}

std::vector<CMatrix::cplx> CMatrix::solve(std::vector<cplx> b) const {
  require(b.size() == rows_, "CMatrix::solve: rhs dimension mismatch");
  const Lu f = factorize();
  require(!f.singular, "CMatrix::solve: singular matrix");
  const std::size_t n = rows_;
  // Apply permutation.
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.perm[i]];
  // Forward substitution (unit lower).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < i; ++k) x[i] -= f.lu.at(i, k) * x[k];
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t k = i + 1; k < n; ++k) x[i] -= f.lu.at(i, k) * x[k];
    x[i] /= f.lu.at(i, i);
  }
  return x;
}

CMatrix CMatrix::inverse() const {
  require(rows_ == cols_, "CMatrix::inverse: square only");
  const std::size_t n = rows_;
  CMatrix out(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<cplx> e(n);
    e[c] = 1.0;
    const auto col = solve(std::move(e));
    for (std::size_t r = 0; r < n; ++r) out.at(r, c) = col[r];
  }
  return out;
}

double CMatrix::norm() const {
  double s = 0.0;
  for (const cplx& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

double CMatrix::condition_number(int iterations) const {
  require(rows_ == cols_ && rows_ > 0, "condition_number: square only");
  const std::size_t n = rows_;
  const CMatrix ah = conjugate_transpose();

  // Largest singular value: power iteration on A^H A.
  std::vector<cplx> v(n, cplx(1.0, 0.0));
  double sigma_max = 0.0;
  for (int it = 0; it < iterations; ++it) {
    auto w = ah * (*this * v);
    double norm_w = 0.0;
    for (const auto& x : w) norm_w += std::norm(x);
    norm_w = std::sqrt(norm_w);
    if (norm_w < 1e-300) return 1e30;
    for (auto& x : w) x /= norm_w;
    sigma_max = std::sqrt(norm_w);
    v = std::move(w);
  }

  // Smallest singular value: inverse power iteration, solving (A^H A) w = v
  // via two triangular solves per step would need an LU of A^H A; reuse
  // solve() on A and A^H instead: (A^H A)^-1 v = A^-1 (A^-H v).
  const Lu f = factorize();
  if (f.singular) return 1e30;
  std::vector<cplx> u(n, cplx(1.0, 0.0));
  double sigma_min = 0.0;
  const CMatrix aht = ah;  // A^H
  for (int it = 0; it < iterations; ++it) {
    auto w = aht.solve(u);
    w = solve(std::move(w));
    double norm_w = 0.0;
    for (const auto& x : w) norm_w += std::norm(x);
    norm_w = std::sqrt(norm_w);
    if (norm_w < 1e-300) return 1e30;
    for (auto& x : w) x /= norm_w;
    sigma_min = 1.0 / std::sqrt(norm_w);
    u = std::move(w);
  }
  if (sigma_min <= 0.0) return 1e30;
  return sigma_max / sigma_min;
}

std::complex<double> estimate_channel_gain(
    std::span<const std::complex<double>> y, std::span<const double> x) {
  require(y.size() == x.size() && !y.empty(), "estimate_channel_gain: size mismatch");
  std::complex<double> num{};
  double den = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    num += y[i] * x[i];
    den += x[i] * x[i];
  }
  require(den > 0.0, "estimate_channel_gain: zero-energy reference");
  return num / den;
}

std::vector<std::vector<std::complex<double>>> zero_force_n(
    const std::vector<std::vector<std::complex<double>>>& y, const CMatrix& h) {
  require(!y.empty(), "zero_force_n: no streams");
  require(h.rows() == y.size() && h.cols() == y.size(),
          "zero_force_n: channel matrix shape mismatch");
  const std::size_t n = y.size();
  std::size_t len = y[0].size();
  for (const auto& s : y)
    require(s.size() == len, "zero_force_n: stream length mismatch");

  const CMatrix inv = h.inverse();
  std::vector<std::vector<std::complex<double>>> x(
      n, std::vector<std::complex<double>>(len));
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      std::complex<double> acc{};
      for (std::size_t j = 0; j < n; ++j) acc += inv.at(i, j) * y[j][t];
      x[i][t] = acc;
    }
  }
  return x;
}

}  // namespace pab::phy
