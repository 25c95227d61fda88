// MIMO collision decoding for N concurrent backscatter nodes.
//
// Backscatter is frequency-agnostic: a powered-up node modulates reflections
// of *every* impinging carrier (paper section 3.3.2), so with N recto-piezos
// on carriers f1..fN the hydrophone observes y(fi) = sum_j h_j(fi) x_j.  The
// receiver estimates H from per-node training segments and separates the
// streams by zero-forcing, "projecting on the orthogonal of the unwanted
// channel vector" (section 6.3).  CMatrix is a compact column-major complex
// matrix with LU decomposition (partial pivoting), solve, inverse, and a
// singular-value-based condition estimate.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pab::phy {

class CMatrix {
 public:
  using cplx = std::complex<double>;

  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  [[nodiscard]] static CMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] cplx& at(std::size_t r, std::size_t c) {
    pab::require(r < rows_ && c < cols_, "CMatrix: index out of range");
    return data_[c * rows_ + r];
  }
  [[nodiscard]] const cplx& at(std::size_t r, std::size_t c) const {
    pab::require(r < rows_ && c < cols_, "CMatrix: index out of range");
    return data_[c * rows_ + r];
  }

  [[nodiscard]] CMatrix operator*(const CMatrix& rhs) const;
  [[nodiscard]] std::vector<cplx> operator*(const std::vector<cplx>& v) const;

  [[nodiscard]] CMatrix conjugate_transpose() const;

  // Solve A x = b via LU with partial pivoting.  Throws on singular A.
  [[nodiscard]] std::vector<cplx> solve(std::vector<cplx> b) const;

  // Inverse via LU (square only).
  [[nodiscard]] CMatrix inverse() const;

  // Frobenius norm.
  [[nodiscard]] double norm() const;

  // 2-norm condition number estimated by power iteration on A^H A (largest
  // singular value) and inverse iteration (smallest).  Adequate for the
  // small, well-separated channel matrices this library manipulates.
  [[nodiscard]] double condition_number(int iterations = 50) const;

 private:
  struct Lu;  // defined after the class (holds a CMatrix)
  [[nodiscard]] Lu factorize() const;

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<cplx> data_;
};

struct CMatrix::Lu {
  CMatrix lu;
  std::vector<std::size_t> perm;
  bool singular = false;
};

// Least-squares scalar channel estimate h = <y, x> / <x, x> over a training
// segment where node reference `x` (+/-1 chips at sample rate) is known and
// the other nodes are idle.  The fit has no offset term: the caller removes
// the segment's DC first.
[[nodiscard]] std::complex<double> estimate_channel_gain(
    std::span<const std::complex<double>> y, std::span<const double> x);

// N-stream zero-forcing: x(t) = H^-1 y(t) applied per sample across streams.
// `y[i]` is the stream observed on carrier i; returns one estimated stream
// per transmitting node.
[[nodiscard]] std::vector<std::vector<std::complex<double>>> zero_force_n(
    const std::vector<std::vector<std::complex<double>>>& y, const CMatrix& h);

}  // namespace pab::phy
