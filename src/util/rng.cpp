#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace pab {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t kShift = 156;
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
  const auto mix = [](result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k)
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  for (; k < kStateSize - 1; ++k)
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  state_[k] = mix(state_[k], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

void Mt19937_64::fill(std::span<result_type> out) {
  for (std::size_t i = 0; i < out.size();) {
    if (pos_ == kStateSize) twist();
    const std::size_t m = std::min(out.size() - i, kStateSize - pos_);
    for (std::size_t k = 0; k < m; ++k) out[i + k] = temper(state_[pos_ + k]);
    pos_ += m;
    i += m;
  }
}

namespace {

// std::generate_canonical<double, 53> on a 64-bit engine as libstdc++
// computes it: one word rounded once to double, scaled by 2^-64, and clamped
// to just below 1 when the rounding reaches 1.  hi * 2^32 is exact, so the
// sum rounds once, as the unsigned conversion does, but without its branch.
double canonical(std::uint64_t word) {
  const auto hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
  const auto lo = static_cast<double>(static_cast<std::uint32_t>(word));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

// libstdc++'s polar method, one fresh distribution per value: draw canonical
// pairs (x, y) in [-1, 1)^2 until 0 < r2 = x^2 + y^2 <= 1, then return
// y * sqrt(-2 ln r2 / r2); the pair's other value, x * sqrt(..), is
// discarded.  Each value consumes at least one pair, so for R values still
// owed min(R, kChunk) pairs are drawn at once and no word is drawn early.
// The accepted pairs are kept, then transformed.  The chunk size does not
// change the output.
template <std::size_t kChunk>
void polar_into(Mt19937_64& engine, std::span<double> out, double mean,
                double stddev) {
  std::array<std::uint64_t, 2 * kChunk> words{};
  std::array<double, kChunk> ys{}, r2s{};
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t pairs = std::min(out.size() - done, kChunk);
    engine.fill(std::span(words).first(2 * pairs));
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double x = 2.0 * canonical(words[2 * p]) - 1.0;
      const double y = 2.0 * canonical(words[2 * p + 1]) - 1.0;
      const double r2 = x * x + y * y;
      ys[accepted] = y;
      r2s[accepted] = r2;
      accepted += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
    }
    for (std::size_t k = 0; k < accepted; ++k) {
      const double mult = std::sqrt(-2 * std::log(r2s[k]) / r2s[k]);
      // The distribution returns (y * mult) * 1 + 0 for N(0, 1); the + 0.0
      // turns the -0.0 that r2 == 1 yields into +0.0.
      out[done + k] = (ys[k] * mult + 0.0) * stddev + mean;
    }
    done += accepted;
  }
}

}  // namespace

double Rng::gaussian(double mean, double stddev) {
  double v = 0.0;
  polar_into<1>(engine_, std::span<double>(&v, 1), mean, stddev);
  return v;
}

void Rng::gaussian_into(std::span<double> out, double mean, double stddev) {
  polar_into<256>(engine_, out, mean, stddev);
}

}  // namespace pab
