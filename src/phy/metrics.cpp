#include "phy/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::phy {
namespace {

constexpr double kFloorDb = -60.0;
constexpr double kCeilDb = 60.0;

double safe_ratio_db(double signal, double noise) {
  if (signal <= 0.0) return kFloorDb;
  if (noise <= 0.0) return kCeilDb;
  const double db = 10.0 * std::log10(signal / noise);
  return std::clamp(db, kFloorDb, kCeilDb);
}

}  // namespace

double bit_error_rate(std::span<const std::uint8_t> sent,
                      std::span<const std::uint8_t> received) {
  require(sent.size() == received.size() && !sent.empty(),
          "bit_error_rate: size mismatch or empty");
  return static_cast<double>(hamming_distance(sent, received)) /
         static_cast<double>(sent.size());
}

double measure_sinr_db(std::span<const std::complex<double>> rx,
                       std::span<const double> ref) {
  require(rx.size() == ref.size() && !rx.empty(), "measure_sinr: size mismatch");
  const auto n = static_cast<double>(rx.size());
  std::complex<double> mx{};
  double mr = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) { mx += rx[i]; mr += ref[i]; }
  mx /= n;
  mr /= n;
  double rr = 0.0;
  std::complex<double> rx_ref{};
  for (std::size_t i = 0; i < rx.size(); ++i) {
    rr += (ref[i] - mr) * (ref[i] - mr);
    rx_ref += (rx[i] - mx) * (ref[i] - mr);
  }
  if (rr <= 0.0) return kFloorDb;
  const std::complex<double> h = rx_ref / rr;
  double noise = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i)
    noise += std::norm((rx[i] - mx) - h * (ref[i] - mr));
  noise /= n;
  return safe_ratio_db(std::norm(h), noise);
}

}  // namespace pab::phy
