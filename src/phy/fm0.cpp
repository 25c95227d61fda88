#include "phy/fm0.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::phy {

void fm0_encode_into(std::span<const std::uint8_t> bits,
                     std::int8_t initial_level, std::span<std::int8_t> out) {
  require(initial_level == 1 || initial_level == -1, "fm0_encode: level must be +/-1");
  require(out.size() == bits.size() * 2, "fm0_encode_into: output size mismatch");
  std::int8_t level = initial_level;
  std::size_t j = 0;
  for (std::uint8_t bit : bits) {
    level = static_cast<std::int8_t>(-level);  // boundary inversion
    out[j++] = level;
    if ((bit & 1u) == 0) level = static_cast<std::int8_t>(-level);  // data-0 mid inversion
    out[j++] = level;
  }
}

Chips fm0_encode(std::span<const std::uint8_t> bits, std::int8_t initial_level) {
  Chips chips(bits.size() * 2);
  fm0_encode_into(bits, initial_level, chips);
  return chips;
}

namespace {

// back[t][state] = (previous state, decoded bit); a plain aggregate so the
// arena's trivially-copyable requirement holds (std::pair is not trivial).
struct BackPtr {
  std::int8_t prev;
  std::uint8_t bit;
};
using BackEntry = std::array<BackPtr, 2>;

// The two-state Viterbi shared by the vector wrapper and the arena-backed
// into-kernel; `back` is caller-provided scratch of soft.size()/2 entries.
void decode_ml_core(std::span<const double> soft, std::int8_t initial_level,
                    std::span<BackEntry> back, std::span<std::uint8_t> out) {
  const std::size_t n_bits = soft.size() / 2;
  if (n_bits == 0) return;

  // Viterbi over the line level at the *end* of each bit: state 0 -> -1,
  // state 1 -> +1.  Branch from prev level L: first chip is -L; bit 1 keeps
  // the level (end = -L), bit 0 inverts again (end = L).
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::array<double, 2> metric{kNegInf, kNegInf};
  metric[initial_level > 0 ? 1 : 0] = 0.0;

  for (std::size_t t = 0; t < n_bits; ++t) {
    const double x0 = soft[2 * t];
    const double x1 = soft[2 * t + 1];
    std::array<double, 2> next{kNegInf, kNegInf};
    for (int prev = 0; prev < 2; ++prev) {
      if (metric[prev] == kNegInf) continue;
      const double level_prev = prev == 1 ? 1.0 : -1.0;
      const double c0 = -level_prev;
      // bit = 1: chips (c0, c0), end level = c0.
      {
        const double m = metric[prev] + c0 * x0 + c0 * x1;
        const int end = c0 > 0 ? 1 : 0;
        if (m > next[end]) {
          next[end] = m;
          back[t][end] = {static_cast<std::int8_t>(prev), 1};
        }
      }
      // bit = 0: chips (c0, -c0), end level = -c0.
      {
        const double m = metric[prev] + c0 * x0 - c0 * x1;
        const int end = -c0 > 0 ? 1 : 0;
        if (m > next[end]) {
          next[end] = m;
          back[t][end] = {static_cast<std::int8_t>(prev), 0};
        }
      }
    }
    metric = next;
  }

  // Traceback from the better ending state.
  int state = metric[1] >= metric[0] ? 1 : 0;
  for (std::size_t t = n_bits; t-- > 0;) {
    out[t] = back[t][static_cast<std::size_t>(state)].bit;
    state = back[t][static_cast<std::size_t>(state)].prev;
  }
}

// Vector-dispatch variant: with the per-bit chip sums s[t] = x0+x1 and
// differences d[t] = x0-x1 precomputed (dsp::simd::chip_sum_diff), the four
// branch metrics per step collapse to metric[prev] +/- s or +/- d, and the
// add-compare-select keeps the reference tie-breaking order (prev 0 before
// prev 1, bit 1 before bit 0, strict improvement).  Tolerance path: c0*(x0+x1)
// rounds differently from c0*x0 + c0*x1.
void decode_ml_core_sumdiff(std::span<const double> s, std::span<const double> d,
                            std::int8_t initial_level, std::span<BackEntry> back,
                            std::span<std::uint8_t> out) {
  const std::size_t n_bits = out.size();
  if (n_bits == 0) return;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::array<double, 2> metric{kNegInf, kNegInf};
  metric[initial_level > 0 ? 1 : 0] = 0.0;
  for (std::size_t t = 0; t < n_bits; ++t) {
    // End state 1: (prev 0, bit 1) then (prev 1, bit 0).
    const double m1a = metric[0] + s[t];
    const double m1b = metric[1] - d[t];
    // End state 0: (prev 0, bit 0) then (prev 1, bit 1).
    const double m0a = metric[0] + d[t];
    const double m0b = metric[1] - s[t];
    if (m1a >= m1b) {
      metric[1] = m1a;
      back[t][1] = {0, 1};
    } else {
      metric[1] = m1b;
      back[t][1] = {1, 0};
    }
    if (m0a >= m0b) {
      metric[0] = m0a;
      back[t][0] = {0, 0};
    } else {
      metric[0] = m0b;
      back[t][0] = {1, 1};
    }
  }
  int state = metric[1] >= metric[0] ? 1 : 0;
  for (std::size_t t = n_bits; t-- > 0;) {
    out[t] = back[t][static_cast<std::size_t>(state)].bit;
    state = back[t][static_cast<std::size_t>(state)].prev;
  }
}

}  // namespace

void fm0_decode_ml_into(std::span<const double> soft, std::int8_t initial_level,
                        std::span<std::uint8_t> out, dsp::Arena& scratch) {
  require(soft.size() % 2 == 0, "fm0_decode_ml: odd chip count");
  require(initial_level == 1 || initial_level == -1, "fm0_decode_ml: level must be +/-1");
  require(out.size() == soft.size() / 2, "fm0_decode_ml_into: output size mismatch");
  const auto frame = scratch.frame();
  const auto back = scratch.alloc<BackEntry>(out.size());
  if (dsp::simd::enabled() && !out.empty()) {
    const auto sum = scratch.alloc<double>(out.size());
    const auto diff = scratch.alloc<double>(out.size());
    dsp::simd::chip_sum_diff(soft, sum, diff);
    decode_ml_core_sumdiff(sum, diff, initial_level, back, out);
    return;
  }
  decode_ml_core(soft, initial_level, back, out);
}

Bits fm0_decode_ml(std::span<const double> soft, std::int8_t initial_level) {
  require(soft.size() % 2 == 0, "fm0_decode_ml: odd chip count");
  require(initial_level == 1 || initial_level == -1, "fm0_decode_ml: level must be +/-1");
  const std::size_t n_bits = soft.size() / 2;
  if (n_bits == 0) return {};
  std::vector<BackEntry> back(n_bits);
  Bits bits(n_bits);
  if (dsp::simd::enabled()) {
    std::vector<double> sum(n_bits);
    std::vector<double> diff(n_bits);
    dsp::simd::chip_sum_diff(soft, sum, diff);
    decode_ml_core_sumdiff(sum, diff, initial_level, back, bits);
    return bits;
  }
  decode_ml_core(soft, initial_level, back, bits);
  return bits;
}

}  // namespace pab::phy
