#include "check/audit.hpp"

#include <exception>

#include "util/rng.hpp"

namespace pab::check {
namespace {

// One SplitMix64 output: decorrelates (base_seed, name, trial) triples so
// neighbouring trials do not feed neighbouring mt19937_64 states.
std::uint64_t mix(std::uint64_t z) {
  return splitmix64_finalize(z + kSplitMix64Gamma);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, const std::string& name,
                         std::uint64_t trial) {
  return mix(mix(base_seed ^ fnv1a(name)) + trial);
}

AuditReport run_audit(const AuditConfig& config,
                      const std::vector<Invariant>& invariants,
                      obs::MetricRegistry* registry) {
  AuditReport report;
  for (const auto& inv : invariants) {
    if (!config.only.empty() &&
        inv.name.find(config.only) == std::string::npos)
      continue;
    InvariantOutcome outcome;
    outcome.name = inv.name;
    outcome.guards = inv.guards;
    for (std::uint64_t t = 0; t < config.trials; ++t) {
      const std::uint64_t seed = trial_seed(config.base_seed, inv.name, t);
      CheckResult r;
      try {
        r = inv.run(seed);
      } catch (const std::exception& e) {
        r = CheckResult::fail(std::string("checker threw: ") + e.what());
      }
      ++outcome.trials;
      if (!r.ok) {
        if (outcome.violations == 0) {
          outcome.first_failing_seed = seed;
          outcome.first_detail = r.detail;
        }
        ++outcome.violations;
        if (config.stop_on_first) break;
      }
    }
    if (registry != nullptr) {
      const std::string base = "check.audit." + outcome.name;
      registry->counter(base + ".trials").add(outcome.trials);
      registry->counter(base + ".violations").add(outcome.violations);
    }
    report.outcomes.push_back(std::move(outcome));
  }
  if (registry != nullptr) {
    registry->gauge("check.audit.invariants")
        .set(static_cast<double>(report.outcomes.size()));
    registry->gauge("check.audit.violations_total")
        .set(static_cast<double>(report.total_violations()));
  }
  return report;
}

AuditReport run_audit(const AuditConfig& config,
                      obs::MetricRegistry* registry) {
  return run_audit(config, default_invariants(), registry);
}

}  // namespace pab::check
