#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "dsp/simd.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  require(n != 0 && (n & (n - 1)) == 0, "fft: size must be a power of two");
  rev_.assign(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = j;
  }
  // Stage h (half-length h) reads its h twiddles from offset h - 1: the
  // size-n twiddles of index j = k * (n / 2h), k < h, each from its index.
  tw_.resize(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const auto j = static_cast<double>(k * (n / (2 * h)));
      const double a = -kTwoPi * j / static_cast<double>(n);
      tw_[h - 1 + k] = cplx(std::cos(a), std::sin(a));
    }
  }
}

namespace {

std::mutex& plan_mutex() {
  static std::mutex mu;
  return mu;
}

// Leaked on purpose: kernels may run during static destruction of test
// fixtures and the cache must outlive every caller.
std::map<std::size_t, std::unique_ptr<FftPlan>>& plan_cache() {
  static auto* cache = new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  return *cache;
}

}  // namespace

void FftPlan::transform(std::span<cplx> data, bool inverse) const {
  require(data.size() == n_, "fft: data size does not match the plan");
  for (std::size_t i = 1; i < n_; ++i)
    if (i < rev_[i]) std::swap(data[i], data[rev_[i]]);
  simd::fft_butterflies(data, tw_, inverse);
  if (!inverse) return;
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (auto& x : data) x *= inv_n;
}

const FftPlan& fft_plan(std::size_t n) {
  const std::lock_guard<std::mutex> lock(plan_mutex());
  auto& cache = plan_cache();
  auto it = cache.find(n);
  // Construct before inserting: a rejected size leaves no entry behind.
  if (it == cache.end())
    it = cache.emplace(n, std::make_unique<FftPlan>(n)).first;
  return *it->second;
}

std::size_t fft_plan_cache_size() {
  const std::lock_guard<std::mutex> lock(plan_mutex());
  return plan_cache().size();
}

}  // namespace pab::dsp
