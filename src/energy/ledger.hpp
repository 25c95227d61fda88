// Energy accounting across a node's lifetime.
//
// Tracks harvested and consumed energy by category so experiments can report
// energy-per-bit and verify conservation (consumed + stored <= harvested).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace pab::obs {
class MetricRegistry;
}  // namespace pab::obs

namespace pab::energy {

enum class Category : std::size_t {
  kHarvested = 0,
  kIdle,
  kDecode,
  kBackscatter,
  kSensing,
  kLeakage,
  kCount,
};

[[nodiscard]] constexpr std::string_view to_string(Category c) {
  switch (c) {
    case Category::kHarvested: return "harvested";
    case Category::kIdle: return "idle";
    case Category::kDecode: return "decode";
    case Category::kBackscatter: return "backscatter";
    case Category::kSensing: return "sensing";
    case Category::kLeakage: return "leakage";
    case Category::kCount: break;
  }
  return "?";
}

class EnergyLedger {
 public:
  void add(Category c, double joules);

  [[nodiscard]] double total(Category c) const;
  // Sum of all consumption categories (everything except kHarvested).
  [[nodiscard]] double total_consumed() const;
  [[nodiscard]] double harvested() const { return total(Category::kHarvested); }

  // Average power of a category over `elapsed_s`; 0.0 when no time has
  // elapsed (there is no power reading to report over an empty interval).
  [[nodiscard]] double average_power_w(Category c, double elapsed_s) const;

  // Publish the ledger as gauges `<prefix>.<category>_joules` plus
  // `<prefix>.total_consumed_joules` (bench sidecars, energy-per-bit
  // reporting).
  void export_to(obs::MetricRegistry& registry,
                 std::string_view prefix = "energy") const;

  void reset();

 private:
  std::array<double, static_cast<std::size_t>(Category::kCount)> joules_{};
};

}  // namespace pab::energy
