// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component of the simulator draws from an explicitly seeded
// `Rng` so that experiments are repeatable bit-for-bit.  A light wrapper over
// std::mt19937_64 with the distributions the stack actually needs.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace pab {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedc0deULL) : engine_(seed) {}

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Standard normal (or scaled) sample.  std::normal_distribution requires
  // stddev > 0, so the draw is standard normal, rescaled here: the same
  // arithmetic libstdc++ applies inside the distribution, so every stream is
  // unchanged, and stddev == 0 (an ideal, noiseless component) yields `mean`.
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + mean;
  }

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

  // White Gaussian noise vector with the given standard deviation (rescaled
  // from standard normal draws, as in gaussian()).
  [[nodiscard]] std::vector<double> awgn(std::size_t n, double stddev) {
    std::vector<double> out(n);
    std::normal_distribution<double> dist(0.0, 1.0);
    for (auto& v : out) v = dist(engine_) * stddev;
    return out;
  }

  // Derive an independent child stream (for per-node randomness).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pab
