#include "phy/cdma.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pab::phy {

std::vector<std::int8_t> walsh_code(std::size_t length, std::size_t index) {
  require(length >= 1 && (length & (length - 1)) == 0,
          "walsh_code: length must be a power of two");
  require(index < length, "walsh_code: index out of range");
  std::vector<std::int8_t> code(length);
  for (std::size_t n = 0; n < length; ++n) {
    // Hadamard entry = (-1)^{popcount(n & index)}.
    const int bits = __builtin_popcountll(n & index);
    code[n] = (bits % 2 == 0) ? 1 : -1;
  }
  return code;
}

std::vector<std::int8_t> cdma_spread(std::span<const std::int8_t> data_chips,
                                     std::span<const std::int8_t> code) {
  require(!code.empty(), "cdma_spread: empty code");
  std::vector<std::int8_t> out;
  out.reserve(data_chips.size() * code.size());
  for (std::int8_t d : data_chips)
    for (std::int8_t c : code) out.push_back(static_cast<std::int8_t>(d * c));
  return out;
}

std::vector<double> cdma_despread(std::span<const double> rx,
                                  std::span<const std::int8_t> code) {
  require(!code.empty(), "cdma_despread: empty code");
  std::vector<double> out(rx.size() / code.size(), 0.0);
  for (std::size_t p = 0; p < out.size(); ++p) {
    double acc = 0.0;
    for (std::size_t i = 0; i < code.size(); ++i)
      acc += rx[p * code.size() + i] * static_cast<double>(code[i]);
    out[p] = acc / static_cast<double>(code.size());
  }
  return out;
}

double occupied_bandwidth_hz(double symbol_rate) {
  require(symbol_rate > 0.0, "occupied_bandwidth: rate must be positive");
  return 2.0 * symbol_rate;
}

double code_cross_correlation(std::span<const std::int8_t> a,
                              std::span<const std::int8_t> b,
                              std::size_t offset) {
  require(a.size() == b.size() && !a.empty(),
          "code_cross_correlation: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(a[i]) *
           static_cast<double>(b[(i + offset) % b.size()]);
  return std::abs(acc) / static_cast<double>(a.size());
}

}  // namespace pab::phy
