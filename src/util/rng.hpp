// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component of the simulator draws from an explicitly seeded
// `Rng` so that experiments are repeatable bit-for-bit.  A light wrapper over
// an in-house MT19937-64 engine with the distributions the stack actually
// needs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace pab {

// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), the pieces used to derive
// seeds and hashes from small or neighbouring integers: the generator's
// golden-ratio increment, and its output finalizer -- a bijection on 64-bit
// words whose every output bit depends on every input bit.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// MT19937-64, word for word the engine std::mt19937_64 is: the standard fixes
// its output ([rand.predef]: the 10000th word of a default-seeded engine is
// 9981545732273789042).  In-house so that bulk draws twist the state one
// block at a time and temper straight into the caller's buffer, and so that
// no stream depends on a library version.  A UniformRandomBitGenerator, so
// std::shuffle and the std distributions take it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateSize) twist();
    return temper(state_[pos_++]);
  }

  // The next out.size() words, as that many calls would return them.
  void fill(std::span<result_type> out);

 private:
  static constexpr std::size_t kStateSize = 312;

  static result_type temper(result_type y) {
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }
  void twist();  // regenerates all kStateSize words and rewinds pos_

  std::array<result_type, kStateSize> state_{};
  std::size_t pos_ = kStateSize;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedc0deULL) : engine_(seed) {}

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Standard normal (or scaled) sample: the value a fresh
  // std::normal_distribution<double>(0, 1) draws from this engine (libstdc++'s
  // polar method, whose second value is discarded), times stddev plus mean.
  // stddev == 0 (an ideal, noiseless component) yields `mean`.
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0);

  // out.size() gaussian(mean, stddev) draws in bulk: the same values, and the
  // same engine state afterwards, as that many gaussian() calls.
  void gaussian_into(std::span<double> out, double mean, double stddev);

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  [[nodiscard]] bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Random payload bits, used heavily by PHY tests and benches.
  [[nodiscard]] std::vector<std::uint8_t> bits(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    bits_into(out);
    return out;
  }

  // Allocation-free variant: fills `out`, drawing exactly out.size() engine
  // words (identical stream consumption to bits(out.size())).
  void bits_into(std::span<std::uint8_t> out) {
    for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 1u);
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(engine_() & 0xffu);
    return out;
  }

  // Derive an independent child stream (for per-node randomness).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace pab
