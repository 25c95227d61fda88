// MAC layer tests: protocol builders, scheduler retries, FDMA planning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "mac/fdma.hpp"
#include "mac/inventory.hpp"
#include "mac/protocol.hpp"
#include "mac/rate_control.hpp"
#include "mac/scheduler.hpp"
#include "mac/zones.hpp"
#include "obs/metrics.hpp"
#include "phy/scheme.hpp"
#include "sim/timeline.hpp"
#include "timeline_sums.hpp"

namespace pab::mac {
namespace {

TEST(Protocol, BuildersSetFields) {
  const auto q = make_read_ph(5);
  EXPECT_EQ(q.address, 5);
  EXPECT_EQ(q.command, phy::Command::kReadPh);
  const auto s = make_set_bitrate(3, 8);
  EXPECT_EQ(s.argument, 8);
}

TEST(Protocol, ParsePhResponse) {
  const auto q = make_read_ph(1);
  phy::UplinkPacket p;
  p.node_id = 1;
  p.payload = node::encode_ph_payload(7.25);
  const auto r = parse_response(q, p);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->value, 7.25, 0.005);
  EXPECT_EQ(r->unit, "pH");
}

TEST(Protocol, ParseRejectsWrongSize) {
  const auto q = make_read_pressure(1);
  phy::UplinkPacket p;
  p.payload = {0x01};  // pressure needs 4 bytes
  EXPECT_FALSE(parse_response(q, p).has_value());
}

TEST(Protocol, ResponseSizes) {
  EXPECT_EQ(response_payload_size(phy::Command::kPing), 1u);
  EXPECT_EQ(response_payload_size(phy::Command::kReadPh), 2u);
  EXPECT_EQ(response_payload_size(phy::Command::kReadPressure), 4u);
}

TEST(Scheduler, SucceedsFirstTry) {
  PollScheduler sched;
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    phy::UplinkPacket p;
    p.payload = {1, 2};
    return p;
  };
  const auto r = sched.transact(make_ping(1), link, 60, 1000.0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(sched.stats().attempts, 1u);
  EXPECT_EQ(sched.stats().successes, 1u);
  EXPECT_EQ(sched.stats().retries, 0u);
  EXPECT_NEAR(sched.stats().payload_bits_delivered, 16.0, 1e-9);
}

TEST(Scheduler, RetriesOnCrcFailure) {
  PollScheduler sched(SchedulerConfig{2, 0.2, 0.02});
  int calls = 0;
  const auto link = [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    if (++calls < 3) return pab::Error{pab::ErrorCode::kCrcMismatch, "noise"};
    phy::UplinkPacket p;
    p.payload = {9};
    return p;
  };
  const auto r = sched.transact(make_ping(1), link, 60, 1000.0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(sched.stats().attempts, 3u);
  EXPECT_EQ(sched.stats().retries, 2u);
  EXPECT_EQ(sched.stats().crc_failures, 2u);
}

TEST(Scheduler, GivesUpAfterMaxRetries) {
  PollScheduler sched(SchedulerConfig{1, 0.2, 0.02});
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    return pab::Error{pab::ErrorCode::kNoPreamble, "dead link"};
  };
  const auto r = sched.transact(make_ping(1), link, 60, 1000.0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(sched.stats().attempts, 2u);  // initial + 1 retry
  EXPECT_EQ(sched.stats().successes, 0u);
}

TEST(Scheduler, AirtimeAccounting) {
  PollScheduler sched(SchedulerConfig{0, 0.2, 0.02});
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    phy::UplinkPacket p;
    p.payload = {1};
    return p;
  };
  (void)sched.transact(make_ping(1), link, 100, 1000.0);
  // 0.2 downlink + 0.02 turnaround + 0.1 uplink.
  EXPECT_NEAR(sched.stats().elapsed_s, 0.32, 1e-9);
  EXPECT_GT(sched.stats().goodput_bps(), 0.0);
}

// Regression: a no-response attempt used to charge the full uplink slot too,
// deflating effective-throughput numbers on lossy links.  Only the query and
// turnaround occupy the channel when the node never answers.
TEST(Scheduler, NoResponseChargesNoUplinkAirtime) {
  PollScheduler sched(SchedulerConfig{1, 0.2, 0.02});
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    return pab::Error{pab::ErrorCode::kNoPreamble, "dead link"};
  };
  const auto r = sched.transact(make_ping(1), link, 100, 1000.0);
  EXPECT_FALSE(r.ok());
  // 2 attempts x (0.2 downlink + 0.02 turnaround), zero uplink airtime.
  EXPECT_NEAR(sched.stats().elapsed_s, 0.44, 1e-9);
  EXPECT_EQ(sched.stats().no_response, 2u);
}

// A CRC-failed reply did arrive, so its uplink airtime is real and stays
// charged.
TEST(Scheduler, CrcFailedReplyStillChargesUplinkAirtime) {
  PollScheduler sched(SchedulerConfig{0, 0.2, 0.02});
  const auto link = [](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    return pab::Error{pab::ErrorCode::kCrcMismatch, "noise"};
  };
  (void)sched.transact(make_ping(1), link, 100, 1000.0);
  // 0.2 downlink + 0.02 turnaround + 0.1 uplink: the reply was on the air.
  EXPECT_NEAR(sched.stats().elapsed_s, 0.32, 1e-9);
}

// Mixed retry sequence: one silent attempt, then a decoded reply.
TEST(Scheduler, MixedRetrySequenceAirtime) {
  PollScheduler sched(SchedulerConfig{2, 0.2, 0.02});
  int calls = 0;
  const auto link = [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    if (++calls == 1) return pab::Error{pab::ErrorCode::kTimeout, "silent"};
    phy::UplinkPacket p;
    p.payload = {7};
    return p;
  };
  const auto r = sched.transact(make_ping(1), link, 100, 1000.0);
  EXPECT_TRUE(r.ok());
  // Attempt 1: 0.22 (no reply).  Attempt 2: 0.22 + 0.1 uplink.
  EXPECT_NEAR(sched.stats().elapsed_s, 0.54, 1e-9);
}

// export_to folds the scheduler's books into a registry under mac.poll.*,
// so bench sidecars can carry MAC accounting; a second export adds again.
TEST(Scheduler, CountersVisibleInInjectedRegistry) {
  obs::MetricRegistry reg;
  PollScheduler sched(SchedulerConfig{1, 0.2, 0.02});
  int calls = 0;
  const auto link = [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    if (++calls == 1) return pab::Error{pab::ErrorCode::kCrcMismatch, "noise"};
    phy::UplinkPacket p;
    p.payload = {1, 2};
    return p;
  };
  const auto r = sched.transact(make_ping(1), link, 60, 1000.0);
  EXPECT_TRUE(r.ok());
  sched.export_to(reg);
  EXPECT_EQ(reg.counter("mac.poll.attempts").value(), 2u);
  EXPECT_EQ(reg.counter("mac.poll.retries").value(), 1u);
  EXPECT_EQ(reg.counter("mac.poll.successes").value(), 1u);
  EXPECT_EQ(reg.counter("mac.poll.crc_failures").value(), 1u);
  EXPECT_EQ(reg.counter("mac.poll.no_response").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("mac.poll.payload_bits_delivered").value(), 16.0);
  EXPECT_DOUBLE_EQ(reg.gauge("mac.poll.elapsed_s").value(),
                   sched.stats().elapsed_s);
  // The registry agrees with the books it was fed from.
  EXPECT_EQ(sched.stats().attempts, 2u);
  sched.export_to(reg);
  EXPECT_EQ(reg.counter("mac.poll.attempts").value(), 4u);
  EXPECT_DOUBLE_EQ(reg.gauge("mac.poll.payload_bits_delivered").value(), 32.0);
}

TEST(Scheduler, PollRoundHitsAllQueries) {
  PollScheduler sched;
  int calls = 0;
  const auto link = [&](const phy::DownlinkQuery&) -> pab::Expected<phy::UplinkPacket> {
    ++calls;
    phy::UplinkPacket p;
    p.payload = {0};
    return p;
  };
  const std::vector<phy::DownlinkQuery> queries = {make_ping(1), make_ping(2),
                                                   make_ping(3)};
  sched.poll_round(queries, link, 60, 1000.0);
  EXPECT_EQ(calls, 3);
}

// The decode floor every rung of the default ladder measures headroom over.
double fm0_floor_db() {
  return phy::scheme_descriptor(phy::SchemeId::kFm0).decode_floor_db;
}

// Regression: with downshift_on_crc_failure disabled, a CRC-failed
// observation with high SNR headroom used to advance the good streak and
// could trigger an upshift -- rewarding undecodable packets.  A failed CRC
// must never count toward an upshift streak.
TEST(RateControl, CrcFailureNeverFeedsUpshiftStreak) {
  RateControlConfig cfg;
  cfg.downshift_on_crc_failure = false;
  cfg.up_streak = 3;
  RateController rc(cfg, /*initial_index=*/2);
  // Plenty of headroom, but every packet fails its CRC.
  const double snr = fm0_floor_db() + cfg.up_margin_db + 10.0;
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(rc.observe(snr, /*crc_ok=*/false));
  EXPECT_EQ(rc.rate_index(), 2u);
  EXPECT_EQ(rc.upshifts(), 0u);
}

TEST(RateControl, CrcFailureResetsAnInProgressGoodStreak) {
  RateControlConfig cfg;
  cfg.downshift_on_crc_failure = false;
  cfg.up_streak = 3;
  RateController rc(cfg, 2);
  const double snr = fm0_floor_db() + cfg.up_margin_db + 10.0;
  EXPECT_FALSE(rc.observe(snr, true));
  EXPECT_FALSE(rc.observe(snr, true));
  // The failure wipes the streak; the next two good packets are not enough.
  EXPECT_FALSE(rc.observe(snr, false));
  EXPECT_FALSE(rc.observe(snr, true));
  EXPECT_FALSE(rc.observe(snr, true));
  EXPECT_EQ(rc.rate_index(), 2u);
  // The third consecutive good observation finally upshifts.
  EXPECT_TRUE(rc.observe(snr, true));
  EXPECT_EQ(rc.rate_index(), 3u);
  EXPECT_EQ(rc.upshifts(), 1u);
}

// Regression (pre-fix the controller accepted this silently): an unsorted or
// duplicated rate table inverts the meaning of "upshift" -- walking up the
// index can lower the rate -- so it must be rejected at construction.
TEST(RateControl, UnsortedRateTableIsRejectedAtConstruction) {
  const auto config_for = [](std::vector<double> rates) {
    RateControlConfig cfg;
    cfg.ladder = fm0_ladder(rates);
    return cfg;
  };
  EXPECT_THROW(RateController rc(config_for({100.0, 400.0, 200.0, 800.0})),
               std::exception);
  EXPECT_THROW(RateController rc(config_for({100.0, 200.0, 200.0, 400.0})),
               std::exception);
  EXPECT_THROW(RateController rc(config_for({0.0, 200.0, 400.0})),
               std::exception);
  EXPECT_NO_THROW(RateController rc(config_for({100.0, 200.0, 400.0})));
}

namespace {

// A three-rung ladder: robust FM0, faster FM0, dense 4-FSK.
mac::RateControlConfig ladder_config() {
  mac::RateControlConfig cfg;
  cfg.ladder = {{phy::SchemeId::kFm0, 500.0},
                {phy::SchemeId::kFm0, 1000.0},
                {phy::SchemeId::kFsk4, 1000.0}};
  cfg.up_streak = 2;
  return cfg;
}

// Quality implied by an SNR for the model-level ladder tests.
phy::LinkQuality quality_at(double snr_db) {
  return phy::link_quality_from_snr(snr_db, /*bandwidth_hz=*/2000.0);
}

}  // namespace

TEST(RateControl, LadderValidatesThroughputOrderingAtConstruction) {
  // Rungs must strictly ascend in delivered throughput (bitrate x
  // bits/symbol); the FSK4 rung at half the FM0 bitrate delivers the same
  // 1000 bps as rung 1, which is a config bug.
  mac::RateControlConfig cfg = ladder_config();
  cfg.ladder[2] = {phy::SchemeId::kFsk4, 500.0};
  EXPECT_THROW(mac::RateController rc(cfg), std::exception);
  cfg.ladder[2] = {phy::SchemeId::kFsk4, 499.0};  // strictly below: worse
  EXPECT_THROW(mac::RateController rc(cfg), std::exception);
  EXPECT_NO_THROW(mac::RateController rc(ladder_config()));
}

TEST(RateControl, LadderWalksUpOnSoftMetricsAndDownOnCrc) {
  mac::RateController rc(ladder_config(), /*initial_index=*/0);
  EXPECT_EQ(rc.scheme(), phy::SchemeId::kFm0);
  EXPECT_EQ(rc.rate_bps(), 500.0);

  // Strong MER relative to the FM0 floor (2 dB) upshifts after the streak.
  const auto good = quality_at(30.0);
  EXPECT_FALSE(rc.observe_quality(good, true));
  EXPECT_TRUE(rc.observe_quality(good, true));
  EXPECT_EQ(rc.rate_index(), 1u);
  EXPECT_FALSE(rc.observe_quality(good, true));
  EXPECT_TRUE(rc.observe_quality(good, true));
  EXPECT_EQ(rc.rate_index(), 2u);
  EXPECT_EQ(rc.scheme(), phy::SchemeId::kFsk4);
  EXPECT_EQ(rc.rung().bitrate, 1000.0);

  // A CRC failure is the hard backstop: immediate downshift.
  EXPECT_TRUE(rc.observe_quality(good, false));
  EXPECT_EQ(rc.rate_index(), 1u);
  EXPECT_EQ(rc.downshifts(), 1u);
}

TEST(RateControl, LadderHeadroomUsesTheCurrentRungsFloor) {
  // 13 dB MER clears FM0's floor (2 dB) by 11 dB >= up_margin (9), but
  // clears FSK4's floor (7 dB) by only 6 dB < up_margin -- so the same
  // quality that climbs the FM0 rungs refuses to climb past an FSK4 rung,
  // and falls off it once inside down_margin.
  mac::RateControlConfig cfg = ladder_config();
  cfg.up_streak = 1;
  const auto q13 = quality_at(13.0);
  mac::RateController rc(cfg, 0);
  EXPECT_TRUE(rc.observe_quality(q13, true));   // 0 -> 1 (FM0 floor)
  EXPECT_TRUE(rc.observe_quality(q13, true));   // 1 -> 2 (still FM0 floor)
  EXPECT_EQ(rc.rate_index(), 2u);
  // On the FSK4 rung: headroom 6 dB, between down (3) and up (9): hold.
  EXPECT_FALSE(rc.observe_quality(q13, true));
  EXPECT_EQ(rc.rate_index(), 2u);
  // 9 dB MER: headroom 2 dB < down_margin on FSK4 -> retreat to FM0.
  EXPECT_TRUE(rc.observe_quality(quality_at(9.0), true));
  EXPECT_EQ(rc.rate_index(), 1u);
  EXPECT_EQ(rc.scheme(), phy::SchemeId::kFm0);
}

TEST(RateControl, LadderEvmGatesOverrideMer) {
  mac::RateControlConfig cfg = ladder_config();
  cfg.up_streak = 1;
  mac::RateController rc(cfg, 1);

  // MER says plenty of headroom, but a heavy-tailed error distribution (EVM
  // past the backstop) forces a downshift anyway.
  phy::LinkQuality bad_tail = quality_at(30.0);
  bad_tail.evm_rms = cfg.evm_backstop + 0.1;
  EXPECT_TRUE(rc.observe_quality(bad_tail, true));
  EXPECT_EQ(rc.rate_index(), 0u);

  // EVM above the upshift gate (but below the backstop) blocks climbing
  // without forcing a retreat.
  phy::LinkQuality marginal = quality_at(30.0);
  marginal.evm_rms = cfg.evm_upshift_max + 0.05;
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(rc.observe_quality(marginal, true));
  EXPECT_EQ(rc.rate_index(), 0u);
}

TEST(Fdma, TwoChannelPlanMatchesPaper) {
  // The paper's two concurrent recto-piezos sit at 15 and 18 kHz.
  const auto plan = plan_channels(2);
  ASSERT_EQ(plan.channels(), 2u);
  EXPECT_NEAR(plan.carriers_hz[0], 15000.0, 1e-9);
  EXPECT_NEAR(plan.carriers_hz[1], 18000.0, 1e-9);
}

// Regression (pre-fix this threw std::invalid_argument): asking for more
// nodes than the band fits must return a structured over-subscription plan --
// every channel that fits, plus the reuse factor zoned scheduling needs --
// instead of rejecting deployment-scale populations outright.
TEST(Fdma, OvercrowdedBandReturnsOversubscribedPlan) {
  const auto plan = plan_channels(10);
  ASSERT_EQ(plan.channels(), 2u);  // the band still fits exactly two carriers
  EXPECT_NEAR(plan.carriers_hz[0], 15000.0, 1e-9);
  EXPECT_NEAR(plan.carriers_hz[1], 18000.0, 1e-9);
  EXPECT_EQ(plan.requested, 10u);
  EXPECT_EQ(plan.reuse_factor, 5u);  // ceil(10 / 2)
  // Round-robin reuse: slot i gets carrier i % channels.
  EXPECT_NEAR(plan.carrier_for(0), 15000.0, 1e-9);
  EXPECT_NEAR(plan.carrier_for(1), 18000.0, 1e-9);
  EXPECT_NEAR(plan.carrier_for(2), 15000.0, 1e-9);
  EXPECT_NEAR(plan.carrier_for(9), 18000.0, 1e-9);
}

TEST(Fdma, WithinCapacityPlanIsNotOversubscribed) {
  const auto plan = plan_channels(2);
  EXPECT_EQ(plan.requested, 2u);
  EXPECT_EQ(plan.reuse_factor, 1u);
}

TEST(Fdma, SingleNodeCentered) {
  const auto plan = plan_channels(1);
  ASSERT_EQ(plan.channels(), 1u);
  EXPECT_NEAR(plan.carriers_hz[0], 16500.0, 1e-9);  // mid 15-18 kHz
}

TEST(Fdma, CrosstalkMatrixDiagonalDominant) {
  const auto plan = plan_channels(2);
  const auto m = crosstalk_matrix(plan);
  // Diagonal is normalized to 1; off-diagonal nonzero (frequency-agnostic
  // backscatter) but below on-channel.
  EXPECT_NEAR(m[0][0], 1.0, 1e-9);
  EXPECT_NEAR(m[1][1], 1.0, 1e-9);
  EXPECT_GT(m[0][1], 0.0);
  EXPECT_LT(m[0][1], 1.0);
  EXPECT_GT(m[1][0], 0.0);
  EXPECT_LT(m[1][0], 1.0);
}

TEST(Fdma, RejectionMaskIsFlatInPassbandThenRollsOffToTheFloor) {
  const RejectionMask mask;  // 1 kHz passband, 30 dB/kHz, 40 dB floor
  // Co-channel and within-passband offsets pass untouched.
  EXPECT_EQ(rejection_db(mask, 15000.0, 15000.0), 0.0);
  EXPECT_EQ(rejection_db(mask, 15000.0, 15800.0), 0.0);
  EXPECT_EQ(rejection_power_factor(mask, 15000.0, 15000.0), 1.0);
  // Beyond the passband the roll-off is linear in |offset| - passband...
  EXPECT_NEAR(rejection_db(mask, 15000.0, 16500.0), 15.0, 1e-12);
  EXPECT_NEAR(rejection_db(mask, 15000.0, 13500.0), 15.0, 1e-12);  // symmetric
  // ...until the stopband floor caps it: the paper's 3 kHz FDMA spacing
  // lands on the floor with the default mask.
  EXPECT_NEAR(rejection_db(mask, 15000.0, 18000.0), 40.0, 1e-12);
  EXPECT_NEAR(rejection_power_factor(mask, 15000.0, 18000.0), 1e-4, 1e-16);
}

TEST(Fdma, RejectionMaskRejectsNegativeParameters) {
  RejectionMask bad;
  bad.passband_hz = -1.0;
  EXPECT_THROW((void)rejection_db(bad, 15000.0, 18000.0), std::exception);
  bad = RejectionMask{};
  bad.slope_db_per_khz = -1.0;
  EXPECT_THROW((void)rejection_db(bad, 15000.0, 18000.0), std::exception);
  bad = RejectionMask{};
  bad.floor_db = -1.0;
  EXPECT_THROW((void)rejection_db(bad, 15000.0, 18000.0), std::exception);
}

// Regression: stats().elapsed_s used to be read back from an obs::Gauge,
// i.e. a plain running `double +=`.  Over hundreds of thousands of
// transactions the rounding error accumulates linearly (~1e-6 s after 400k
// adds of these step sizes), which is enough to shift goodput figures in the
// 7th digit.  elapsed_s comes from a compensated (Neumaier) sum and must
// stay exact to ~1 ulp of the true product, and so must the gauge
// export_to publishes.
TEST(Scheduler, ElapsedAirtimeDoesNotDriftOverLongRuns) {
  obs::MetricRegistry reg;
  const SchedulerConfig config{0, 0.1, 0.003};
  PollScheduler sched(config);
  const auto link = [](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    phy::UplinkPacket p;
    p.payload = {1};
    return p;
  };
  constexpr std::size_t kTransacts = 400'000;
  // Per-transact airtime: downlink + turnaround + uplink(70b @ 1 kbps).
  const double per = 0.1 + 0.003 + 0.07;
  for (std::size_t i = 0; i < kTransacts; ++i)
    (void)sched.transact(make_ping(1), link, 70, 1000.0);

  sched.export_to(reg);
  const double expected = per * static_cast<double>(kTransacts);
  const double exported = reg.gauge("mac.poll.elapsed_s").value();
  EXPECT_EQ(exported, sched.stats().elapsed_s);
  // The compensated sum is exact to well under a nanosecond over the whole
  // run; a naive running sum is off by ~1e-6 s.
  EXPECT_LT(std::abs(sched.stats().elapsed_s - expected), 1e-9);
  EXPECT_LT(std::abs(exported - expected), 1e-9);
}

TEST(Fdma, ThroughputDoubling) {
  // The headline network claim: 2 concurrent channels double the aggregate.
  EXPECT_NEAR(fdma_throughput_bps(2, 1000.0) / tdma_throughput_bps(2, 1000.0),
              2.0, 1e-9);
}

// --- zoned inventory ---------------------------------------------------------

// A 2x2 zone grid where horizontal/vertical neighbors interfere (the shape
// the sim layer produces for a field two cull-radii wide).
ZoneLayout two_by_two_layout(std::size_t per_zone) {
  ZoneLayout layout;
  std::uint32_t next = 0;
  for (std::size_t z = 0; z < 4; ++z) {
    layout.members.emplace_back();
    for (std::size_t k = 0; k < per_zone; ++k)
      layout.members.back().push_back(next++);
  }
  layout.adjacency = {{1, 2}, {0, 3}, {0, 3}, {1, 2}};
  return layout;
}

TEST(Zones, ColoringSeparatesInterferingZones) {
  const ZoneLayout layout = two_by_two_layout(4);
  const ZoneSchedule schedule = plan_zones(layout);
  ASSERT_EQ(schedule.zones.size(), 4u);
  for (std::size_t z = 0; z < 4; ++z)
    for (const std::uint32_t a : layout.adjacency[z])
      EXPECT_NE(schedule.zones[z].color, schedule.zones[a].color);
  // 2x2 checkerboard: two colors cover it, both fit the paper's 2-carrier
  // band, so everything runs in one round.
  EXPECT_EQ(schedule.colors, 2u);
  EXPECT_EQ(schedule.plan.channels(), 2u);
  EXPECT_EQ(schedule.rounds, 1u);
  EXPECT_NE(schedule.zones[0].carrier_hz, schedule.zones[1].carrier_hz);
}

TEST(Zones, ColorsBeyondTheBandWrapIntoSequentialRounds) {
  // A clique of 5 zones needs 5 colors; 2 carriers -> 3 rounds of spatial
  // reuse, carriers recycling in color order.
  ZoneLayout layout;
  layout.members.resize(5);
  layout.adjacency.resize(5);
  std::uint32_t next = 0;
  for (std::size_t z = 0; z < 5; ++z) {
    layout.members[z] = {next++, next++};
    for (std::size_t a = 0; a < 5; ++a)
      if (a != z) layout.adjacency[z].push_back(static_cast<std::uint32_t>(a));
  }
  const ZoneSchedule schedule = plan_zones(layout);
  EXPECT_EQ(schedule.colors, 5u);
  EXPECT_GT(schedule.plan.reuse_factor, 1u);
  EXPECT_EQ(schedule.rounds, 3u);
  EXPECT_EQ(schedule.zones[0].round, 0u);
  EXPECT_EQ(schedule.zones[2].round, 1u);
  EXPECT_EQ(schedule.zones[4].round, 2u);
  EXPECT_EQ(schedule.zones[0].carrier_hz, schedule.zones[2].carrier_hz);
}

TEST(Zones, ZonedInventoryFindsEveryNodeExactlyOnce) {
  const ZoneLayout layout = two_by_two_layout(30);  // 120 nodes total
  const ZoneSchedule schedule = plan_zones(layout);
  sim::Timeline tl;
  const auto result =
      run_zoned_inventory(layout, schedule, InventoryConfig{}, tl);
  std::vector<std::uint32_t> sorted = result.identified;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> want(120);
  for (std::uint32_t i = 0; i < 120; ++i) want[i] = i;
  EXPECT_EQ(sorted, want);
  EXPECT_EQ(result.zones, 4u);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_GT(result.simulated_s, 0.0);
}

TEST(Zones, MasterTimelineChargesRoundsAndZoneAirtime) {
  const ZoneLayout layout = two_by_two_layout(8);
  const ZoneSchedule schedule = plan_zones(layout);
  sim::Timeline tl;
  const auto result =
      run_zoned_inventory(layout, schedule, InventoryConfig{}, tl);
  // Concurrency contract: the master clock advances by the per-round maximum
  // (what the reader waits), while the per-zone busy charges carry the sum
  // of every zone's own duration -- two labels, because the historical
  // single "mac.zone.inventory" label booked the busy *sum* against a clock
  // that only advanced by the round maximum.
  EXPECT_EQ(tl.now(), result.simulated_s);
  EXPECT_EQ(testing::logged_sum(tl.log(), "mac.zone.round"),
            result.simulated_s);
  EXPECT_EQ(testing::logged_sum(tl.log(), "mac.zone.inventory.busy_s"),
            result.busy_s);
  EXPECT_GE(result.busy_s, result.simulated_s);
  // Four concurrent zones in one round: the busy sum strictly exceeds the
  // wall unless three zones finished in zero time.
  EXPECT_GT(result.busy_s, result.simulated_s);
  EXPECT_EQ(testing::logged_sum(tl.log(), "mac.zone.inventory"), 0.0);
}

TEST(Zones, PerZoneSeedsAreIndependentOfExecutionOrder) {
  // Zone 3's discovery order must not change when unrelated zones disappear:
  // its seed derives from (config.seed, zone id), never from run order.
  const ZoneLayout full = two_by_two_layout(10);
  ZoneLayout only3;
  only3.members = {{}, {}, {}, full.members[3]};
  only3.adjacency = {{}, {}, {}, {}};
  sim::Timeline tl_full;
  const auto r_full =
      run_zoned_inventory(full, plan_zones(full), InventoryConfig{}, tl_full);
  sim::Timeline tl;
  const auto r_only = run_zoned_inventory(only3, plan_zones(only3),
                                          InventoryConfig{}, tl);
  std::vector<std::uint32_t> full_zone3;
  for (const std::uint32_t id : r_full.identified)
    if (id >= 30) full_zone3.push_back(id);
  EXPECT_EQ(full_zone3, r_only.identified);
}

TEST(Zones, OversizedZoneIsRejected) {
  ZoneLayout layout;
  layout.members.resize(1);
  for (std::uint32_t i = 0; i < 201; ++i) layout.members[0].push_back(i);
  layout.adjacency.resize(1);
  const ZoneSchedule schedule = plan_zones(layout);
  sim::Timeline tl;
  EXPECT_THROW(
      (void)run_zoned_inventory(layout, schedule, InventoryConfig{}, tl),
      std::exception);
}

// --- cross-zone interference -------------------------------------------------

// K single-node zones with no adjacency: the greedy coloring gives every zone
// color 0, so all of them inventory concurrently on the same carrier -- the
// co-channel worst case.  With q pinned to 0 every frame is one slot and all
// zones run in lockstep, so every zone's singleton overlaps every other
// zone's.
ZoneLayout lockstep_layout(std::size_t zones) {
  ZoneLayout layout;
  layout.members.resize(zones);
  layout.adjacency.resize(zones);
  for (std::uint32_t z = 0; z < zones; ++z)
    layout.members[z] = {z};
  return layout;
}

InventoryConfig one_slot_config() {
  InventoryConfig config;
  config.initial_q = 0;
  config.min_q = 0;
  config.max_q = 0;
  return config;
}

ZonedInventoryOptions interference_options(std::span<const double> amplitude,
                                           double threshold_db) {
  ZonedInventoryOptions options;
  options.interference.enabled = true;
  options.interference.noise_power = 1e-12;
  options.interference.capture_threshold_db = threshold_db;
  options.interference.node_amplitude = amplitude;
  return options;
}

TEST(Zones, CaptureThresholdExtremesBracketTheInterferenceModel) {
  const ZoneLayout layout = lockstep_layout(3);
  const std::vector<double> amplitude{1e-2, 1e-3, 1e-4};

  sim::Timeline tl_off;
  const auto off = run_zoned_inventory(layout, plan_zones(layout),
                                       one_slot_config(), tl_off);
  EXPECT_EQ(off.corrupted_slots, 0u);
  EXPECT_EQ(off.sinr_evaluated_slots, 0u);
  EXPECT_EQ(off.mean_slot_sinr_db, 0.0);

  // A threshold below the SINR clamp always captures: identical schedule,
  // identical ids, identical clock bits -- but every singleton is evaluated.
  sim::Timeline tl_always;
  const auto always =
      run_zoned_inventory(layout, plan_zones(layout), one_slot_config(),
                          tl_always, interference_options(amplitude, -1e9));
  EXPECT_EQ(always.identified, off.identified);
  EXPECT_EQ(always.simulated_s, off.simulated_s);
  EXPECT_EQ(always.busy_s, off.busy_s);
  EXPECT_EQ(always.corrupted_slots, 0u);
  EXPECT_EQ(always.sinr_evaluated_slots, 3u);

  // A threshold above the clamp never captures: nobody is identified, every
  // evaluated slot is corrupted and booked as a collision.
  sim::Timeline tl_never;
  const auto never =
      run_zoned_inventory(layout, plan_zones(layout), one_slot_config(),
                          tl_never, interference_options(amplitude, 1e9));
  EXPECT_TRUE(never.identified.empty());
  EXPECT_EQ(never.inventory.singletons, 0u);
  EXPECT_EQ(never.corrupted_slots, never.sinr_evaluated_slots);
  EXPECT_GT(never.corrupted_slots, 0u);
  EXPECT_EQ(never.inventory.collisions, never.corrupted_slots);
}

TEST(Zones, AggregateOfIndividuallyHarmlessInterferersCorrupts) {
  // One pairwise interferer leaves the victim 20 dB above threshold, so a
  // two-zone field inventories completely -- the weak zone even recovers
  // once the strong zone finishes and goes quiet.  Forty such interferers
  // summed (each individually 20 dB down) drag every zone below the capture
  // threshold: the many-sub-floor-pairs case where per-pair reasoning says
  // "silent" and the aggregate says otherwise.
  const double threshold_db = 6.0;
  {
    std::vector<double> amplitude{1e-3, 1e-4};
    sim::Timeline tl;
    const ZoneLayout layout = lockstep_layout(2);
    const auto r =
        run_zoned_inventory(layout, plan_zones(layout), one_slot_config(), tl,
                            interference_options(amplitude, threshold_db));
    std::vector<std::uint32_t> sorted = r.identified;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1}));
    // The strong zone captured over the weak one in frame one; the weak
    // zone's frame-one singleton was corrupted, then retried clean.
    EXPECT_GE(r.corrupted_slots, 1u);
  }
  {
    const std::size_t zones = 41;
    std::vector<double> amplitude(zones, 1e-4);
    amplitude[0] = 1e-3;  // even the strongest zone drowns in the aggregate
    sim::Timeline tl;
    const ZoneLayout layout = lockstep_layout(zones);
    const auto r =
        run_zoned_inventory(layout, plan_zones(layout), one_slot_config(), tl,
                            interference_options(amplitude, threshold_db));
    EXPECT_TRUE(r.identified.empty());
    EXPECT_GT(r.sinr_evaluated_slots, 0u);
    EXPECT_EQ(r.corrupted_slots, r.sinr_evaluated_slots);
  }
}

TEST(Zones, AdjacentCarrierLeakageIsGatedByTheRejectionMask) {
  // Two mutually adjacent single-node zones: two colors, both fit the
  // two-carrier band, so they run concurrently 3 kHz apart.  With the
  // default mask the 40 dB stopband floor keeps the weak zone clean; with
  // the floor removed the strong zone's leakage corrupts it.
  ZoneLayout layout = lockstep_layout(2);
  layout.adjacency = {{1}, {0}};
  const std::vector<double> amplitude{1e-3, 1e-4};

  sim::Timeline tl_masked;
  ZonedInventoryOptions masked = interference_options(amplitude, 6.0);
  const auto clean = run_zoned_inventory(layout, plan_zones(layout),
                                         one_slot_config(), tl_masked, masked);
  std::vector<std::uint32_t> sorted = clean.identified;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(clean.corrupted_slots, 0u);

  sim::Timeline tl_leaky;
  ZonedInventoryOptions leaky = interference_options(amplitude, 6.0);
  leaky.interference.mask.floor_db = 0.0;  // an ideal-less receive filter
  const auto leaked = run_zoned_inventory(layout, plan_zones(layout),
                                          one_slot_config(), tl_leaky, leaky);
  EXPECT_GT(leaked.corrupted_slots, 0u);
}

TEST(Zones, InterferenceRequiresAmplitudesForEveryMember) {
  const ZoneLayout layout = lockstep_layout(3);
  const std::vector<double> short_amplitudes{1e-3, 1e-3};  // node 2 missing
  sim::Timeline tl;
  EXPECT_THROW(
      (void)run_zoned_inventory(layout, plan_zones(layout), one_slot_config(),
                                tl,
                                interference_options(short_amplitudes, 6.0)),
      std::exception);
}

}  // namespace
}  // namespace pab::mac
