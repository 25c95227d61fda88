#include "energy/ledger.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::energy {

// total_consumed() spells the consumption categories out; these asserts make
// an enum reorder or extension a compile error instead of a silently skewed
// energy-per-bit figure.
static_assert(static_cast<std::size_t>(Category::kHarvested) == 0,
              "EnergyLedger: kHarvested must stay the first category");

namespace {
constexpr std::array kConsumptionCategories = {
    Category::kIdle, Category::kDecode, Category::kBackscatter,
    Category::kSensing, Category::kLeakage};
static_assert(kConsumptionCategories.size() + 1 ==
                  static_cast<std::size_t>(Category::kCount),
              "EnergyLedger: a Category was added or removed -- update "
              "kConsumptionCategories so total_consumed() stays exhaustive");
}  // namespace

void EnergyLedger::add(Category c, double joules) {
  require(c != Category::kCount, "EnergyLedger: invalid category");
  require(joules >= 0.0, "EnergyLedger: negative energy");
  joules_[static_cast<std::size_t>(c)] += joules;
}

double EnergyLedger::total(Category c) const {
  require(c != Category::kCount, "EnergyLedger: invalid category");
  return joules_[static_cast<std::size_t>(c)];
}

double EnergyLedger::total_consumed() const {
  double sum = 0.0;
  for (const Category c : kConsumptionCategories) sum += total(c);
  return sum;
}

void EnergyLedger::export_to(obs::MetricRegistry& registry,
                             std::string_view prefix) const {
  const std::string base = std::string(prefix) + ".";
  for (std::size_t i = 0; i < joules_.size(); ++i) {
    const auto c = static_cast<Category>(i);
    registry.gauge(base + std::string(to_string(c)) + "_joules").set(total(c));
  }
  registry.gauge(base + "total_consumed_joules").set(total_consumed());
}

double EnergyLedger::average_power_w(Category c, double elapsed_s) const {
  // No elapsed time means no power reading: return 0.0 rather than dividing
  // by zero (the old `require` made every caller guard the zero-length
  // interval themselves, and unguarded division would hand benches ±inf/NaN).
  if (elapsed_s <= 0.0) return 0.0;
  return total(c) / elapsed_s;
}

void EnergyLedger::reset() { joules_.fill(0.0); }

}  // namespace pab::energy
