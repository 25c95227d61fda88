// The invariant-audit harness, tested from both sides:
//
//  * against the real implementations every invariant must stay green over a
//    seeded multi-trial sweep (the audit's steady state), and
//  * against "mutant" subjects reproducing each historical bug this PR fixed,
//    at least one invariant must report a violation with a reproducing seed --
//    proof the harness detects the bug class, not just that the code currently
//    passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "check/generators.hpp"
#include "check/invariants.hpp"
#include "mac/inventory.hpp"
#include "mac/rate_control.hpp"
#include "mac/scheduler.hpp"
#include "phy/scheme.hpp"

namespace pab::check {
namespace {

// Run `checker` over seeds 0..max_seeds until a violation appears, returning
// the failing seed (or nullopt).  Mutants are caught probabilistically --
// their trigger input pattern has to come up -- so the smoke-tests assert a
// catch within a bounded seed budget.
template <typename Checker>
std::optional<std::uint64_t> first_violation(const Checker& checker,
                                             std::uint64_t max_seeds) {
  for (std::uint64_t s = 0; s < max_seeds; ++s)
    if (!checker(s).ok) return s;
  return std::nullopt;
}

// --- steady state: the real code passes every invariant ----------------------

TEST(Audit, AllInvariantsGreenOnRealImplementations) {
  AuditConfig cfg;
  cfg.base_seed = 97;
  cfg.trials = 25;
  const auto report = run_audit(cfg);
  EXPECT_EQ(report.outcomes.size(), default_invariants().size());
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.ok()) << o.name << " violated: seed " << o.first_failing_seed
                        << ": " << o.first_detail;
    EXPECT_EQ(o.trials, cfg.trials) << o.name;
  }
  EXPECT_TRUE(report.ok());
}

TEST(Audit, TrialSeedsAreReproducibleAndOrderIndependent) {
  // The reported seed alone must reproduce a violation: same (base, name,
  // trial) -> same seed, distinct names/trials -> distinct streams.
  EXPECT_EQ(trial_seed(1234, "mac.inventory", 7),
            trial_seed(1234, "mac.inventory", 7));
  EXPECT_NE(trial_seed(1234, "mac.inventory", 7),
            trial_seed(1234, "mac.inventory", 8));
  EXPECT_NE(trial_seed(1234, "mac.inventory", 7),
            trial_seed(1234, "energy.ledger", 7));
  EXPECT_NE(trial_seed(1234, "mac.inventory", 7),
            trial_seed(1235, "mac.inventory", 7));
}

TEST(Audit, FilterSelectsBySubstringAndExportsMetrics) {
  AuditConfig cfg;
  cfg.base_seed = 7;
  cfg.trials = 3;
  cfg.only = "energy.";
  obs::MetricRegistry registry;
  const auto report = run_audit(cfg, &registry);
  ASSERT_EQ(report.outcomes.size(), 2u);  // ledger + planner_recharge
  EXPECT_EQ(registry.counter("check.audit.energy.ledger.trials").value(), 3u);
  EXPECT_EQ(registry.counter("check.audit.energy.ledger.violations").value(),
            0u);
  EXPECT_EQ(registry.gauge("check.audit.invariants").value(), 2.0);
  EXPECT_EQ(registry.gauge("check.audit.violations_total").value(), 0.0);
}

TEST(Audit, ThrowingCheckerCountsAsViolation) {
  std::vector<Invariant> suite{
      {"always.throws", "exceptions are violations, not crashes",
       [](std::uint64_t) -> CheckResult { throw std::runtime_error("boom"); }}};
  AuditConfig cfg;
  cfg.trials = 2;
  obs::MetricRegistry registry;
  const auto report = run_audit(cfg, suite, &registry);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].violations, 2u);
  EXPECT_NE(report.outcomes[0].first_detail.find("boom"), std::string::npos);
  EXPECT_EQ(registry.gauge("check.audit.violations_total").value(), 2.0);
}

// --- mutation smoke-tests ----------------------------------------------------
// Each mutant reproduces one historical bug fixed in this PR.  The paired
// invariant must catch it within a bounded seed budget; the real subject must
// stay green over the same budget (no false positives from the same inputs).

// Satellite 1: channel::sample_at truncated the final sample -- positions in
// [size-1, size) returned zero instead of interpolating toward zero-padding.
TEST(Mutation, TailTruncatingSampleAtIsCaught) {
  const SampleFn mutant = [](std::span<const dsp::cplx> x, double pos) {
    if (pos < 0.0) return dsp::cplx{};
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= x.size()) return dsp::cplx{};  // the historical off-by-one
    const double frac = pos - static_cast<double>(i);
    return x[i] * (1.0 - frac) + x[i + 1] * frac;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_sample_interpolation(s, mutant); },
      16);
  ASSERT_TRUE(caught.has_value())
      << "tail-truncating sample_at survived the audit";
  EXPECT_FALSE(check_sample_interpolation(*caught, mutant).ok);
  EXPECT_TRUE(check_sample_interpolation(*caught).ok)
      << "real sample_at flagged on the mutant's reproducing seed";
}

// Satellite 2: RateController advanced the upshift streak on CRC-failed
// observations whenever downshift_on_crc_failure was false.
TEST(Mutation, CrcRewardingRateControllerIsCaught) {
  const RateTraceFn mutant = [](const mac::RateControlConfig& cfg,
                                std::span<const RateObservation> obs) {
    std::size_t index = std::min<std::size_t>(2, cfg.ladder.size() - 1);
    int good = 0;
    int bad = 0;
    std::vector<RateStep> trace;
    for (const auto& o : obs) {
      const double headroom =
          o.snr_db -
          phy::scheme_descriptor(cfg.ladder[index].scheme).decode_floor_db;
      const std::size_t before = index;
      if ((!o.crc_ok && cfg.downshift_on_crc_failure) ||
          headroom < cfg.down_margin_db) {
        good = 0;
        if (++bad >= cfg.down_streak && index > 0) {
          --index;
          bad = 0;
        }
      } else {
        bad = 0;
        // The historical bug: headroom alone extends the streak, CRC ignored.
        if (headroom >= cfg.up_margin_db) {
          if (++good >= cfg.up_streak && index + 1 < cfg.ladder.size()) {
            ++index;
            good = 0;
          }
        } else {
          good = 0;
        }
      }
      trace.push_back({index, index != before});
    }
    return trace;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_rate_control(s, mutant); }, 64);
  ASSERT_TRUE(caught.has_value())
      << "CRC-rewarding rate controller survived the audit";
  const auto detail = check_rate_control(*caught, mutant).detail;
  EXPECT_NE(detail.find("upshift"), std::string::npos) << detail;
  EXPECT_TRUE(check_rate_control(*caught).ok)
      << "real rate controller flagged on the mutant's reproducing seed";
}

// Satellite 3: EnergyPlanner::recharge_time_s returned the -1.0 sentinel for
// non-positive harvest instead of an error.
TEST(Mutation, SentinelRechargeTimeIsCaught) {
  const RechargeFn mutant = [](const energy::EnergyPlanner& planner,
                               double harvest_w,
                               const energy::TransactionCost& cost) {
    return pab::Expected<double>(
        harvest_w <= 0.0 ? -1.0
                         : planner.transaction_energy_j(cost) / harvest_w);
  };
  // Every trial probes harvest <= 0, so the very first seed catches it.
  const auto r = check_planner_recharge(0, mutant);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("harvest <= 0"), std::string::npos) << r.detail;
  EXPECT_TRUE(check_planner_recharge(0).ok);
}

// The scheduler airtime law this harness guards (fixed in an earlier PR):
// charging the uplink slot on silent attempts skews elapsed_s.
TEST(Mutation, UplinkChargedOnSilenceIsCaught) {
  const SchedulerRunFn mutant = [](const mac::SchedulerConfig& cfg,
                                   std::span<const LinkOutcome> script,
                                   std::size_t uplink_bits,
                                   double uplink_bitrate) {
    mac::TransactionStats stats;
    const double uplink_time =
        static_cast<double>(uplink_bits) / uplink_bitrate;
    std::size_t cursor = 0;
    while (cursor < script.size()) {
      for (int attempt = 0; attempt <= cfg.max_retries; ++attempt) {
        const LinkOutcome o =
            cursor < script.size() ? script[cursor++] : LinkOutcome::kSilent;
        ++stats.attempts;
        if (attempt > 0) ++stats.retries;
        // The bug: every attempt pays the uplink slot, reply or not.
        stats.elapsed_s +=
            cfg.downlink_time_s + cfg.turnaround_s + uplink_time;
        if (o == LinkOutcome::kDecoded) {
          ++stats.successes;
          stats.payload_bits_delivered += 16.0;
          break;
        }
        o == LinkOutcome::kCrcFailure ? ++stats.crc_failures
                                      : ++stats.no_response;
      }
    }
    return stats;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_scheduler_airtime(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value())
      << "uplink-charged-on-silence scheduler survived the audit";
  EXPECT_TRUE(check_scheduler_airtime(*caught).ok)
      << "real scheduler flagged on the mutant's reproducing seed";
}

// Satellite 4's failure mode: a botched pending-list compaction that loses a
// node.  Modelled by dropping one pending entry before the inventory runs.
TEST(Mutation, NodeDroppingInventoryIsCaught) {
  const InventoryFn mutant = [](std::span<const std::uint8_t> population,
                                const mac::InventoryConfig& cfg,
                                mac::InventoryStats* stats) {
    const auto truncated =
        population.size() > 1 ? population.first(population.size() - 1)
                              : population;
    return mac::run_inventory(truncated, cfg, stats);
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_inventory_conservation(s, mutant); },
      32);
  ASSERT_TRUE(caught.has_value()) << "node-dropping inventory survived";
  const auto detail = check_inventory_conservation(*caught, mutant).detail;
  EXPECT_NE(detail.find("lost nodes"), std::string::npos) << detail;
  EXPECT_TRUE(check_inventory_conservation(*caught).ok)
      << "real inventory flagged on the mutant's reproducing seed";
}

// The ledger conservation law: folding harvested energy into total_consumed
// double-counts it and skews every energy-per-bit figure.
TEST(Mutation, HarvestLeakingLedgerTotalIsCaught) {
  const LedgerTotalFn mutant =
      [](std::span<const std::pair<energy::Category, double>> entries) {
        double sum = 0.0;
        for (const auto& [c, joules] : entries) sum += joules;  // all of them
        return sum;
      };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_ledger_conservation(s, mutant); },
      16);
  ASSERT_TRUE(caught.has_value()) << "harvest-leaking ledger total survived";
  EXPECT_TRUE(check_ledger_conservation(*caught).ok)
      << "real ledger flagged on the mutant's reproducing seed";
}

// The classic unstable-scheduler bug: a priority queue keyed on time alone
// pops equal-time events in heap order, not creation order.  Modelled by
// reversing every run of equal-time scheduled entries in an otherwise-real
// timeline run.  The determinism the whole sim layer leans on (bit-identical
// event logs at any thread count) dies with this bug.
TEST(Mutation, UnstableTieBreakTimelineIsCaught) {
  const TimelineRunFn real = real_timeline_run();
  const TimelineRunFn mutant = [&real](std::span<const TimelineOp> ops) {
    TimelineProbe probe = real(ops);
    auto& log = probe.log;
    std::size_t i = 0;
    while (i < log.size()) {
      std::size_t j = i;
      while (j + 1 < log.size() && log[j + 1].time == log[i].time &&
             log[j + 1].kind == sim::TimelineEventKind::kScheduled &&
             log[i].kind == sim::TimelineEventKind::kScheduled)
        ++j;
      std::reverse(log.begin() + static_cast<std::ptrdiff_t>(i),
                   log.begin() + static_cast<std::ptrdiff_t>(j) + 1);
      i = j + 1;
    }
    return probe;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_timeline_monotonic(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value()) << "unstable tie-break timeline survived";
  EXPECT_TRUE(check_timeline_monotonic(*caught).ok)
      << "real timeline flagged on the mutant's reproducing seed";
}

// The bug satellite 2 fixed, in event-log form: retry backoff bumped a
// counter but never charged the clock, so live elapsed_s ran ahead of what
// the event log could account for.  Modelled by subtracting the backoff
// airtime from the real probe's stats.
TEST(Mutation, BackoffDroppingSchedulerIsCaught) {
  const TimedSchedulerRunFn real = real_timed_scheduler_run();
  const TimedSchedulerRunFn mutant =
      [&real](const mac::SchedulerConfig& cfg, std::span<const LinkOutcome> script,
              std::span<const std::pair<energy::Category, double>> charges,
              std::size_t uplink_bits, double uplink_bitrate) {
        TimedRunProbe probe =
            real(cfg, script, charges, uplink_bits, uplink_bitrate);
        probe.stats.elapsed_s -= static_cast<double>(probe.stats.retries) *
                                 cfg.retry_backoff_s;
        return probe;
      };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_timeline_reconstruction(s, mutant); },
      32);
  ASSERT_TRUE(caught.has_value()) << "backoff-dropping scheduler survived";
  const auto detail = check_timeline_reconstruction(*caught, mutant).detail;
  EXPECT_NE(detail.find("elapsed"), std::string::npos) << detail;
  EXPECT_TRUE(check_timeline_reconstruction(*caught).ok)
      << "real timed scheduler flagged on the mutant's reproducing seed";
}

// The classic spatial-hashing bug: scanning one neighbor cell too few makes
// the cull drop pairs that straddle a cell boundary -- modelled by culling at
// a slightly shrunken radius.  Links near the gain floor silently vanish
// from the interference census and the zone adjacency built on it.
TEST(Mutation, BoundaryDroppingSpatialCullIsCaught) {
  const CullFn mutant = [](const channel::SpatialIndex& index, double radius_m,
                           channel::CullStats* stats) {
    return channel::cull_pairs(index, radius_m * 0.9, stats);
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_spatial_cull(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value()) << "boundary-dropping spatial cull survived";
  const auto detail = check_spatial_cull(*caught, mutant).detail;
  EXPECT_NE(detail.find("brute-force"), std::string::npos) << detail;
  EXPECT_TRUE(check_spatial_cull(*caught).ok)
      << "real spatial cull flagged on the mutant's reproducing seed";
}

// The historical field-inventory bug this PR fixes: concurrently inventoried
// zones were treated as perfectly silent to each other.  A subject that
// quietly drops the interference model (runs the isolated-zone schedule no
// matter what the checker asks for) must be caught -- the never-capture
// phase still identifies nodes a corrupted inventory could not have.
TEST(Mutation, SilentConcurrentZonesAreCaught) {
  const ZonedRunFn real = real_zoned_inventory();
  const ZonedRunFn mutant = [&real](const ZonedScenario& s,
                                    const mac::ZoneInterferenceModel&) {
    return real(s, mac::ZoneInterferenceModel{});
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_zone_interference(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value()) << "interference-ignoring inventory survived";
  EXPECT_TRUE(check_zone_interference(*caught).ok)
      << "real zoned inventory flagged on the mutant's reproducing seed";
}

// Ledger-conservation bug: a slot demoted by the SINR test must be booked as
// a collision, or singletons + collisions + empties stops adding up to slots.
TEST(Mutation, CorruptedSlotsDroppedFromCollisionsAreCaught) {
  const ZonedRunFn real = real_zoned_inventory();
  const ZonedRunFn mutant = [&real](const ZonedScenario& s,
                                    const mac::ZoneInterferenceModel& model) {
    ZonedRunProbe probe = real(s, model);
    probe.result.inventory.collisions -= probe.result.corrupted_slots;
    return probe;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_zone_interference(s, mutant); }, 32);
  ASSERT_TRUE(caught.has_value()) << "collision-dropping corruption survived";
  const auto detail = check_zone_interference(*caught, mutant).detail;
  EXPECT_NE(detail.find("slots"), std::string::npos) << detail;
  EXPECT_TRUE(check_zone_interference(*caught).ok)
      << "real zoned inventory flagged on the mutant's reproducing seed";
}

// Verdict-accounting bug: zeroing the corruption tally while the collisions
// it caused remain breaks the one-verdict-per-singleton identity.
TEST(Mutation, UncountedSinrVerdictsAreCaught) {
  const ZonedRunFn real = real_zoned_inventory();
  const ZonedRunFn mutant = [&real](const ZonedScenario& s,
                                    const mac::ZoneInterferenceModel& model) {
    ZonedRunProbe probe = real(s, model);
    probe.result.corrupted_slots = 0;
    return probe;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_zone_interference(s, mutant); }, 32);
  ASSERT_TRUE(caught.has_value()) << "verdict-zeroing inventory survived";
  EXPECT_TRUE(check_zone_interference(*caught).ok)
      << "real zoned inventory flagged on the mutant's reproducing seed";
}

// The historical zoned-timeline booking bug: one label carried the *sum* of
// concurrent zone durations while the clock advanced by the round maximum.
// A subject reporting the conflated figure (busy_s == wall) must be caught
// by the event-log reconstruction.
TEST(Mutation, BusyWallConflationInZonedBookingIsCaught) {
  const ZonedRunFn real = real_zoned_inventory();
  const ZonedRunFn mutant = [&real](const ZonedScenario& s,
                                    const mac::ZoneInterferenceModel& model) {
    ZonedRunProbe probe = real(s, model);
    probe.result.busy_s = probe.result.simulated_s;
    return probe;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) {
        return check_timeline_reconstruction(s, real_timed_scheduler_run(),
                                             mutant);
      },
      32);
  ASSERT_TRUE(caught.has_value()) << "busy/wall conflation survived";
  const auto detail =
      check_timeline_reconstruction(*caught, real_timed_scheduler_run(), mutant)
          .detail;
  EXPECT_NE(detail.find("busy"), std::string::npos) << detail;
  EXPECT_TRUE(check_timeline_reconstruction(*caught).ok)
      << "real zoned inventory flagged on the mutant's reproducing seed";
}

// The inverse conflation: a clock that advances by the busy sum (serialized
// zones) instead of the round wall no longer lands on simulated_s.
TEST(Mutation, ClockAdvancedByBusySumIsCaught) {
  const ZonedRunFn real = real_zoned_inventory();
  const ZonedRunFn mutant = [&real](const ZonedScenario& s,
                                    const mac::ZoneInterferenceModel& model) {
    ZonedRunProbe probe = real(s, model);
    probe.now = probe.result.busy_s;
    return probe;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) {
        return check_timeline_reconstruction(s, real_timed_scheduler_run(),
                                             mutant);
      },
      32);
  ASSERT_TRUE(caught.has_value()) << "busy-sum clock survived";
  EXPECT_TRUE(check_timeline_reconstruction(*caught).ok)
      << "real zoned inventory flagged on the mutant's reproducing seed";
}

// The historical field-census bug: the brute-force reference accumulated
// every pair's gain while the culled path summed only within-radius pairs --
// modelled here by a cull whose pair list leaks the sub-radius tail.
TEST(Mutation, AllPairsGainAccumulationIsCaught) {
  const CullFn mutant = [](const channel::SpatialIndex& index, double radius_m,
                           channel::CullStats* stats) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;  // every pair
    const auto n = static_cast<std::uint32_t>(index.size());
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    channel::CullStats honest;
    (void)channel::cull_pairs(index, radius_m, &honest);
    if (stats != nullptr) *stats = honest;  // counters lie about the set
    return pairs;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_spatial_cull(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value()) << "all-pairs gain accumulation survived";
  EXPECT_TRUE(check_spatial_cull(*caught).ok)
      << "real spatial cull flagged on the mutant's reproducing seed";
}

// Deterministic-order bug: a cull that enumerates pairs in grid-cell order
// instead of ascending (i, j) still keeps the right set, but downstream
// consumers (shared tap walks, campaign records) stop being platform-stable.
TEST(Mutation, OrderScramblingSpatialCullIsCaught) {
  const CullFn mutant = [](const channel::SpatialIndex& index, double radius_m,
                           channel::CullStats* stats) {
    auto pairs = channel::cull_pairs(index, radius_m, stats);
    std::reverse(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_spatial_cull(s, mutant); }, 16);
  ASSERT_TRUE(caught.has_value()) << "order-scrambling spatial cull survived";
  EXPECT_TRUE(check_spatial_cull(*caught).ok)
      << "real spatial cull flagged on the mutant's reproducing seed";
}

// phy.link_quality mutants: each wraps the real demodulator and corrupts the
// published LinkQuality the way a plausible implementation bug would.

// A decode path that never fills the quality field (stale default zeros).
TEST(Mutation, UnfilledLinkQualityIsCaught) {
  const LinkQualityFn real = real_link_quality();
  const LinkQualityFn mutant =
      [&](std::span<const double> env, double fs, std::size_t n_bits,
          const phy::DemodConfig& cfg) -> pab::Expected<phy::DemodResult> {
    auto r = real(env, fs, n_bits, cfg);
    if (r.ok()) r.value().quality = phy::LinkQuality{};
    return r;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_link_quality(s, mutant); }, 8);
  ASSERT_TRUE(caught.has_value()) << "zeroed link quality survived the audit";
  EXPECT_TRUE(check_link_quality(*caught).ok)
      << "real demodulator flagged on the mutant's reproducing seed";
}

// CN0 referred to the bit rate instead of the FM0 chip rate (2R): the classic
// wrong-bandwidth bookkeeping bug.
TEST(Mutation, WrongBandwidthCn0IsCaught) {
  const LinkQualityFn real = real_link_quality();
  const LinkQualityFn mutant =
      [&](std::span<const double> env, double fs, std::size_t n_bits,
          const phy::DemodConfig& cfg) -> pab::Expected<phy::DemodResult> {
    auto r = real(env, fs, n_bits, cfg);
    if (r.ok())
      r.value().quality.cn0_dbhz =
          r.value().quality.mer_db + 10.0 * std::log10(cfg.bitrate);
    return r;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_link_quality(s, mutant); }, 8);
  ASSERT_TRUE(caught.has_value()) << "wrong-bandwidth CN0 survived the audit";
  EXPECT_TRUE(check_link_quality(*caught).ok);
}

// An unclamped MER: a clean burst's near-zero error ratio blows past the
// +-60 dB clamp (or straight to infinity).
TEST(Mutation, UnclampedMerIsCaught) {
  const LinkQualityFn real = real_link_quality();
  const LinkQualityFn mutant =
      [&](std::span<const double> env, double fs, std::size_t n_bits,
          const phy::DemodConfig& cfg) -> pab::Expected<phy::DemodResult> {
    auto r = real(env, fs, n_bits, cfg);
    if (r.ok()) {
      auto& q = r.value().quality;
      const double ratio = q.evm_rms * q.evm_rms;
      q.mer_db = -10.0 * std::log10(ratio);  // no clamp, inf at ratio 0
      q.cn0_dbhz = q.mer_db + 10.0 * std::log10(2.0 * cfg.bitrate);
    }
    return r;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_link_quality(s, mutant); }, 8);
  ASSERT_TRUE(caught.has_value()) << "unclamped MER survived the audit";
  EXPECT_TRUE(check_link_quality(*caught).ok);
}

// EVM reported as the error *power* ratio instead of its square root.
TEST(Mutation, SquaredEvmIsCaught) {
  const LinkQualityFn real = real_link_quality();
  const LinkQualityFn mutant =
      [&](std::span<const double> env, double fs, std::size_t n_bits,
          const phy::DemodConfig& cfg) -> pab::Expected<phy::DemodResult> {
    auto r = real(env, fs, n_bits, cfg);
    if (r.ok())
      r.value().quality.evm_rms =
          r.value().quality.evm_rms * r.value().quality.evm_rms;
    return r;
  };
  const auto caught = first_violation(
      [&](std::uint64_t s) { return check_link_quality(s, mutant); }, 8);
  ASSERT_TRUE(caught.has_value()) << "squared EVM survived the audit";
  EXPECT_TRUE(check_link_quality(*caught).ok);
}

}  // namespace
}  // namespace pab::check
