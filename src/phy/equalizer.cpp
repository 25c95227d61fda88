#include "phy/equalizer.hpp"

#include <cmath>

#include "phy/matrix.hpp"
#include "util/error.hpp"

namespace pab::phy {

LinearEqualizer::LinearEqualizer(EqualizerConfig config) : config_(config) {
  require(config.pre_taps >= 0 && config.post_taps >= 0,
          "LinearEqualizer: negative tap counts");
  require(config.ridge >= 0.0, "LinearEqualizer: negative ridge");
}

void LinearEqualizer::train(std::span<const std::complex<double>> rx,
                            std::span<const double> ref) {
  require(rx.size() == ref.size(), "LinearEqualizer: size mismatch");
  const int n_taps = tap_count();
  require(rx.size() >= static_cast<std::size_t>(4 * n_taps),
          "LinearEqualizer: too little training data");

  // Normal equations: (R + ridge*I) w = p with
  //   R[a][b] = sum_t x[t-a'] conj(x[t-b'])   (a' = a - pre_taps)
  //   p[a]    = sum_t conj(x[t-a']) ref[t]
  const int pre = config_.pre_taps;
  const auto x_at = [&](std::ptrdiff_t idx) -> std::complex<double> {
    if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(rx.size())) return {};
    return rx[static_cast<std::size_t>(idx)];
  };

  CMatrix r(static_cast<std::size_t>(n_taps), static_cast<std::size_t>(n_taps));
  std::vector<std::complex<double>> p(static_cast<std::size_t>(n_taps));
  double input_power = 0.0;
  for (const auto& v : rx) input_power += std::norm(v);
  input_power /= static_cast<double>(rx.size());

  for (int a = 0; a < n_taps; ++a) {
    for (int b = 0; b < n_taps; ++b) {
      std::complex<double> acc{};
      for (std::size_t t = 0; t < rx.size(); ++t) {
        acc += std::conj(x_at(static_cast<std::ptrdiff_t>(t) - (a - pre))) *
               x_at(static_cast<std::ptrdiff_t>(t) - (b - pre));
      }
      r.at(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) = acc;
    }
    std::complex<double> acc{};
    for (std::size_t t = 0; t < rx.size(); ++t)
      acc += std::conj(x_at(static_cast<std::ptrdiff_t>(t) - (a - pre))) * ref[t];
    p[static_cast<std::size_t>(a)] = acc;
  }
  const double load = config_.ridge * input_power * static_cast<double>(rx.size());
  for (int a = 0; a < n_taps; ++a)
    r.at(static_cast<std::size_t>(a), static_cast<std::size_t>(a)) += load;

  taps_ = r.solve(std::move(p));
}

std::vector<std::complex<double>> LinearEqualizer::apply(
    std::span<const std::complex<double>> rx) const {
  require(trained(), "LinearEqualizer: not trained");
  const int pre = config_.pre_taps;
  const int n_taps = tap_count();
  std::vector<std::complex<double>> out(rx.size());
  for (std::size_t t = 0; t < rx.size(); ++t) {
    std::complex<double> acc{};
    for (int a = 0; a < n_taps; ++a) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(t) - (a - pre);
      if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(rx.size())) continue;
      acc += taps_[static_cast<std::size_t>(a)] * rx[static_cast<std::size_t>(idx)];
    }
    out[t] = acc;
  }
  return out;
}

}  // namespace pab::phy
