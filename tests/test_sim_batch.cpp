// Determinism and caching contract of the Scenario/Session/BatchRunner layer:
// per-trial results must be bit-identical at any thread count, and the
// session's memoized physics (tap sets, recto-piezo responses) must be
// computed exactly once per key regardless of how many trials touch them.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/link.hpp"
#include "core/network.hpp"
#include "sim/batch.hpp"

namespace pab::sim {
namespace {

TEST(Substream, StableAndDistinct) {
  // The substream split is a pure function of (base, stream)...
  EXPECT_EQ(substream_seed(7, 0), substream_seed(7, 0));
  EXPECT_EQ(substream_seed(42, 13), substream_seed(42, 13));
  // ...and neighboring streams / bases do not collide.
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 7ull, 42ull, 1ull << 40}) {
    for (std::uint64_t stream = 0; stream < 64; ++stream)
      seen.insert(substream_seed(base, stream));
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(BatchRunner, MapPreservesOrderAtAnyThreadCount) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial = BatchRunner(1).map(100, square);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto parallel = BatchRunner(threads).map(100, square);
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }
}

TEST(BatchRunner, MapSeededGivesEachTrialItsOwnSubstream) {
  const auto first_draw = [](std::size_t, Rng& rng) { return rng.uniform(); };
  const auto draws = BatchRunner(4).map_seeded(32, 5, first_draw);
  // Every trial's substream is independent of the worker that ran it:
  for (std::size_t i = 0; i < draws.size(); ++i) {
    Rng expected(substream_seed(5, i));
    EXPECT_EQ(draws[i], expected.uniform()) << "trial " << i;
  }
}

TEST(BatchRunner, PropagatesWorkerExceptions) {
  EXPECT_THROW(BatchRunner(4).map(16,
                                  [](std::size_t i) -> int {
                                    if (i == 11) throw std::runtime_error("boom");
                                    return 0;
                                  }),
               std::runtime_error);
}

// Regression: a worker exception used to leave the trial cursor running, so
// the pool executed every remaining trial before rethrowing.  The fix parks
// the cursor at the end when the error is captured; workers finish at most
// their in-flight trial.  Trial 0 throws immediately and every other trial
// takes ~1 ms, so a non-cancelling pool would provably execute all of them.
TEST(BatchRunner, WorkerExceptionCancelsRemainingTrials) {
  constexpr std::size_t kTrials = 64;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      BatchRunner(4).map(kTrials,
                         [&](std::size_t i) -> int {
                           if (i == 0) throw std::runtime_error("boom");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(1));
                           executed.fetch_add(1);
                           return 0;
                         }),
      std::runtime_error);
  // Pre-fix this is exactly kTrials - 1 (everything but the throwing trial);
  // with prompt cancellation only the few trials already in flight finish.
  EXPECT_LT(executed.load(), kTrials / 2);
}

// The exception counter in an injected registry sees the failure.
TEST(BatchRunner, ExceptionCountReported) {
  obs::MetricRegistry reg;
  EXPECT_THROW(BatchRunner(2, &reg).map(8,
                                        [](std::size_t i) -> int {
                                          if (i == 3)
                                            throw std::runtime_error("boom");
                                          return 0;
                                        }),
               std::runtime_error);
  EXPECT_GE(reg.counter("sim.batch.exceptions").value(), 1u);
}

// A map() from inside a map() body on the same runner runs on its caller
// plus whichever helpers are idle; it never waits for a helper that is busy
// in the outer map, so two levels of nesting with every helper busy finish
// and equal the serial result.
TEST(BatchRunner, NestedMapsOnTheSameRunnerFinishAndMatchSerial) {
  const BatchRunner runner(4);
  const auto leaf = [](std::size_t i, std::size_t j, std::size_t k) {
    return (i * 131 + j) * 17 + k;
  };
  const auto nested = runner.map(8, [&](std::size_t i) {
    const auto middle = runner.map(6, [&](std::size_t j) {
      const auto inner =
          runner.map(5, [&](std::size_t k) { return leaf(i, j, k); });
      std::size_t sum = 0;
      for (const std::size_t v : inner) sum = sum * 31 + v;
      return sum;
    });
    std::size_t sum = 0;
    for (const std::size_t v : middle) sum = sum * 37 + v;
    return sum;
  });
  std::vector<std::size_t> serial;
  for (std::size_t i = 0; i < 8; ++i) {
    std::size_t outer = 0;
    for (std::size_t j = 0; j < 6; ++j) {
      std::size_t sum = 0;
      for (std::size_t k = 0; k < 5; ++k) sum = sum * 31 + leaf(i, j, k);
      outer = outer * 37 + sum;
    }
    serial.push_back(outer);
  }
  EXPECT_EQ(nested, serial);
}

// Several threads may call map() on one runner at once; each dispatch gets
// its own results.
TEST(BatchRunner, ConcurrentCallersShareOneRunner) {
  const BatchRunner runner(4);
  const auto work = [](std::size_t caller, std::size_t rep, std::size_t i) {
    return caller * 1000003 + rep * 1009 + i * i;
  };
  std::vector<std::vector<std::vector<std::size_t>>> got(4);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t rep = 0; rep < 50; ++rep)
        got[c].push_back(runner.map(
            16, [&](std::size_t i) { return work(c, rep, i); }));
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_EQ(got[c].size(), 50u);
    for (std::size_t rep = 0; rep < 50; ++rep) {
      std::vector<std::size_t> serial;
      for (std::size_t i = 0; i < 16; ++i) serial.push_back(work(c, rep, i));
      EXPECT_EQ(got[c][rep], serial) << "caller " << c << " rep " << rep;
    }
  }
}

TEST(BatchRunner, NestedExceptionReachesTheOuterCaller) {
  const BatchRunner runner(4);
  EXPECT_THROW(runner.map(8,
                          [&](std::size_t i) {
                            return runner.map(8, [&](std::size_t j) -> int {
                              if (i == 5 && j == 3)
                                throw std::runtime_error("boom");
                              return 0;
                            });
                          }),
               std::runtime_error);
  // The runner is still usable after the failed dispatch.
  EXPECT_EQ(runner.map(3, [](std::size_t i) { return i; }),
            (std::vector<std::size_t>{0, 1, 2}));
}

// A runner's helpers are joined by its destructor, right after a map() has
// returned (clean under ASan and TSan).
TEST(BatchRunner, DestroyedRightAfterMapIsClean) {
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::size_t> out;
    {
      const BatchRunner runner(4);
      out = runner.map(16, [](std::size_t i) { return i + 1; });
    }
    ASSERT_EQ(out.size(), 16u);
    EXPECT_EQ(out.back(), 16u);
  }
}

// with_metrics: a runner over the same helpers that counts in its own
// registry; the helpers outlive whichever owner goes first.
TEST(BatchRunner, WithMetricsSharesHelpersAndCountsSeparately) {
  obs::MetricRegistry base_reg;
  obs::MetricRegistry view_reg;
  std::optional<BatchRunner> base;
  base.emplace(3, &base_reg);
  const BatchRunner view = base->with_metrics(&view_reg);
  EXPECT_EQ(view.threads(), 3u);
  (void)base->map(10, [](std::size_t i) { return i; });
  base.reset();  // the view still owns the helpers
  const auto out = view.map(12, [](std::size_t i) { return 2 * i; });
  EXPECT_EQ(out[11], 22u);
  EXPECT_EQ(base_reg.counter("sim.batch.trials").value(), 10u);
  EXPECT_EQ(view_reg.counter("sim.batch.trials").value(), 12u);
  std::uint64_t per_worker = 0;
  for (unsigned t = 0; t < view.threads(); ++t)
    per_worker += view_reg.counter("sim.batch.worker." + std::to_string(t) +
                                   ".trials")
                      .value();
  EXPECT_EQ(per_worker, 12u);
}

// The acceptance criterion of the engine: a Monte-Carlo uplink sweep produces
// bit-identical per-trial results on 1, 2, 4, and 8 threads.
TEST(SessionDeterminism, UplinkTrialsBitIdenticalAcrossThreadCounts) {
  const Session session(Scenario::pool_a().with_seed(97));
  constexpr std::size_t kTrials = 12;
  const auto serial = BatchRunner(1).run<TrialKind::kUplink>(session, kTrials);
  ASSERT_EQ(serial.size(), kTrials);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto parallel =
        BatchRunner(threads).run<TrialKind::kUplink>(session, kTrials);
    ASSERT_EQ(parallel.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << i;
      if (!serial[i].ok()) continue;
      const auto& a = serial[i].value();
      const auto& b = parallel[i].value();
      EXPECT_EQ(a.sent, b.sent) << i;
      EXPECT_EQ(a.demod.bits, b.demod.bits) << i;
      // Bit-identical doubles, not approximately equal.
      EXPECT_EQ(a.ber, b.ber) << i;
      EXPECT_EQ(a.demod.snr_db, b.demod.snr_db) << i;
      EXPECT_EQ(a.incident_pressure_pa, b.incident_pressure_pa) << i;
      EXPECT_EQ(a.modulation_pressure_pa, b.modulation_pressure_pa) << i;
    }
  }
}

TEST(SessionDeterminism, NetworkTrialsBitIdenticalAcrossThreadCounts) {
  const Session session(Scenario::pool_a_concurrent().with_seed(3));
  constexpr std::size_t kTrials = 4;
  const auto serial = BatchRunner(1).run<TrialKind::kNetwork>(session, kTrials);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel =
        BatchRunner(threads).run<TrialKind::kNetwork>(session, kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_TRUE(serial[i].ok()) << serial[i].error().message();
      ASSERT_TRUE(parallel[i].ok());
      EXPECT_EQ(serial[i].value().sinr_after_db, parallel[i].value().sinr_after_db)
          << i;
      EXPECT_EQ(serial[i].value().ber_after, parallel[i].value().ber_after) << i;
    }
  }
}

// The event-driven rounds carry the strongest determinism contract in the
// repo: the *entire event log* -- every (time, seq, label, value, kind)
// tuple of every lifecycle tick, inventory slot, and poll airtime charge --
// must be bit-identical at any thread count, not just the aggregate stats.
// This is what makes a timeline trial auditable from its log alone.  Runs
// under TSan in CI like the rest of this suite.
TEST(SessionDeterminism, TimelineRoundsBitIdenticalAcrossThreadCounts) {
  const Session session(Scenario::pool_a_concurrent().with_seed(23));
  TrialOptions options;
  options.timeline.horizon_s = 15.0;  // keep per-trial event counts modest
  constexpr std::size_t kTrials = 8;
  const auto serial =
      BatchRunner(1).run<TrialKind::kTimeline>(session, kTrials, options);
  ASSERT_EQ(serial.size(), kTrials);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = BatchRunner(threads).run<TrialKind::kTimeline>(
        session, kTrials, options);
    ASSERT_EQ(parallel.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_EQ(serial[i].ok(), parallel[i].ok()) << i;
      if (!serial[i].ok()) continue;
      const auto& a = serial[i].value();
      const auto& b = parallel[i].value();
      EXPECT_EQ(a.identified, b.identified) << i;
      EXPECT_EQ(a.events_processed, b.events_processed) << i;
      // Bit-identical doubles, not approximately equal.
      EXPECT_EQ(a.simulated_s, b.simulated_s) << i;
      EXPECT_EQ(a.harvested_j, b.harvested_j) << i;
      EXPECT_EQ(a.consumed_j, b.consumed_j) << i;
      EXPECT_EQ(a.poll.elapsed_s, b.poll.elapsed_s) << i;
      EXPECT_EQ(a.poll.successes, b.poll.successes) << i;
      EXPECT_EQ(a.power_ups, b.power_ups) << i;
      EXPECT_EQ(a.brown_outs, b.brown_outs) << i;
      // The full audit log, event for event.
      EXPECT_EQ(a.event_log, b.event_log) << i;
    }
  }
}

TEST(SessionDeterminism, TimelineTrialsDifferFromEachOther) {
  const Session session(Scenario::pool_a_concurrent().with_seed(23));
  TrialOptions options;
  options.timeline.horizon_s = 15.0;
  const auto a = session.run_trial<TrialKind::kTimeline>(0, options);
  const auto b = session.run_trial<TrialKind::kTimeline>(1, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different trials draw different harvest jitter and link outcomes.
  EXPECT_NE(a.value().event_log, b.value().event_log);
}

TEST(SessionDeterminism, TrialsDifferFromEachOther) {
  // Substreams must decorrelate trials: identical payloads across trials
  // would mean the split is broken.
  const Session session(Scenario::pool_a().with_seed(11));
  const auto trials = BatchRunner(2).run<TrialKind::kUplink>(session, 6);
  for (std::size_t i = 1; i < trials.size(); ++i) {
    ASSERT_TRUE(trials[i].ok());
    EXPECT_NE(trials[i].value().sent, trials[0].value().sent) << i;
  }
}

// Satellite bugfix regression: LinkSimulator used to recompute the
// image-method taps on every run; the shared TapCache must evaluate each
// (endpoints, carrier) key exactly once no matter how many trials run.
TEST(TapCache, EvaluatesEachGeometryOnce) {
  const Session session(Scenario::pool_a().with_seed(1));
  const auto& cache = *session.tap_cache();
  const auto trials = BatchRunner(4).run<TrialKind::kUplink>(session, 10);
  for (const auto& t : trials) ASSERT_TRUE(t.ok());
  // One uplink needs three paths (proj->node, node->hyd, proj->hyd), all at
  // the same carrier: exactly 3 evaluations, served to 10 trials.
  EXPECT_EQ(cache.evaluations(), 3u);
  EXPECT_GE(cache.lookups(), 30u);
}

TEST(TapCache, DistinctKeysEvaluateSeparately) {
  const channel::Tank tank = channel::make_pool_a();
  const channel::TapCache cache(tank, 2, true);
  const channel::Vec3 a{1.0, 1.0, 0.5}, b{2.0, 2.0, 0.5};
  const auto t1 = cache.taps(a, b, 15000.0);
  const auto t2 = cache.taps(a, b, 15000.0);  // hit
  const auto t3 = cache.taps(a, b, 18000.0);  // new carrier
  const auto t4 = cache.taps(b, a, 15000.0);  // reversed endpoints
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(cache.evaluations(), 3u);
  EXPECT_EQ(cache.lookups(), 4u);
  EXPECT_FALSE(t3->empty());
  EXPECT_FALSE(t4->empty());
}

// Satellite: the recto-piezo frequency response is memoized per (front end,
// carrier, bitrate) -- trials at one operating point share one evaluation.
TEST(Session, ModulationResponseMemoized) {
  obs::MetricRegistry reg;
  const Session session(Scenario::pool_a().with_seed(2), &reg);
  const obs::Counter& evaluations =
      reg.counter("sim.session.modulation_cache_misses");
  const auto trials = BatchRunner(4).run<TrialKind::kUplink>(session, 8);
  for (const auto& t : trials) ASSERT_TRUE(t.ok());
  EXPECT_EQ(evaluations.value(), 1u);
  // A different operating point is a fresh evaluation...
  (void)session.modulation(0, 18000.0, 1000.0);
  EXPECT_EQ(evaluations.value(), 2u);
  // ...and repeating it is not.
  (void)session.modulation(0, 18000.0, 1000.0);
  EXPECT_EQ(evaluations.value(), 2u);
}

// Satellite: failures surface as Expected errors, not sentinel values.
TEST(Session, UndecodableRunReturnsError) {
  Scenario sc = Scenario::pool_a().with_seed(4);
  sc.medium.noise.psd_db_re_upa = 140.0;  // drown the link
  sc.projector.drive_v = 1e-3;
  const Session session(sc);
  const auto out = session.run_trial<TrialKind::kUplink>(0);
  ASSERT_FALSE(out.ok());
  EXPECT_FALSE(out.error().message().empty());
}

TEST(Session, NetworkRequiresConsistentScenario) {
  // One node but a two-carrier FDMA plan: a config error, reported as such.
  Scenario sc = Scenario::pool_a();
  sc.fdma.carriers_hz = {15000.0, 18000.0};
  const Session session(sc);
  const auto out = session.run_trial<TrialKind::kNetwork>(0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kInvalidArgument);
}

// Regression: pool_b() kept the Pool A node at x = 1.6 m, outside the 1.2 m
// wide corridor, so every uplink trial threw from the tap generator.
TEST(Session, PoolBPresetRunsUplinkTrials) {
  const Session session(Scenario::pool_b());
  const auto out = session.run_trial<TrialKind::kUplink>(0);
  ASSERT_TRUE(out.ok()) << out.error().message();
}

// An uplink endpoint outside the tank is a config error reported through
// Expected, as for kNetwork, not an exception out of the tap generator.
TEST(Session, UplinkOutsideTheTankReturnsInvalidArgument) {
  const Scenario inside = Scenario::pool_a();
  Scenario far_projector = inside;
  far_projector.reader.projector.x = 5.0;
  Scenario far_hydrophone = inside;
  far_hydrophone.reader.hydrophone.y = -1.0;
  for (const Scenario& sc :
       {inside.with_node({5.0, 2.2, 0.65}), far_projector, far_hydrophone}) {
    const Session session(sc);
    const auto out = session.run_trial<TrialKind::kUplink>(0);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, ErrorCode::kInvalidArgument);
  }
}

// Regression: spec text sets the waveform timing, and the link cast
// node_start_s * fs and the capture length to size_t unchecked.  A negative
// or huge node start read as "no preamble", and a NaN node start or a
// negative tail threw out of the trial and ended the campaign.  Each is a
// config error reported through Expected.
TEST(Session, UplinkWaveformTimingOutOfRangeReturnsInvalidArgument) {
  struct Timing {
    double node_start_s, tail_s;
  };
  for (const Timing t : {Timing{-0.01, 0.02}, Timing{1e300, 0.02},
                         Timing{std::nan(""), 0.02}, Timing{0.05, -1.0}}) {
    Scenario sc = Scenario::pool_a();
    sc.waveform.node_start_s = t.node_start_s;
    sc.waveform.tail_s = t.tail_s;
    const Session session(sc);
    const auto out = session.run_trial<TrialKind::kUplink>(0);
    ASSERT_FALSE(out.ok()) << t.node_start_s << " " << t.tail_s;
    EXPECT_EQ(out.error().code, ErrorCode::kInvalidArgument)
        << t.node_start_s << " " << t.tail_s << ": " << out.error().message();
  }
}

// Wall-clock sanity: on a multi-core host the fan-out must actually help.
// Gated on hardware concurrency so single-core CI stays meaningful.
TEST(BatchRunner, ParallelSpeedupOnMultiCoreHosts) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs >= 4 cores to measure speedup";
  const Session session(Scenario::pool_a().with_seed(31));
  constexpr std::size_t kTrials = 32;
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial = BatchRunner(1).run<TrialKind::kUplink>(session, kTrials);
  const auto t1 = clock::now();
  const auto parallel = BatchRunner(8).run<TrialKind::kUplink>(session, kTrials);
  const auto t2 = clock::now();
  const double speedup = std::chrono::duration<double>(t1 - t0).count() /
                         std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GT(speedup, 1.5) << "8-thread batch not faster than serial";
  for (std::size_t i = 0; i < kTrials; ++i)
    EXPECT_EQ(serial[i].value().demod.bits, parallel[i].value().demod.bits);
}

// The deprecated pre-TrialKind shims (Session::run / run_network /
// run_timeline, BatchRunner::run_uplink) are gone; the unified run_trial
// surface is the only entry point.  Pin that the compile-time and
// runtime-kind forms of that surface agree bit-exactly, which is the
// contract the old shim test asserted through the legacy names.
TEST(UnifiedTrialApi, TemplateAndRuntimeKindFormsAgreeExactly) {
  const Session session(Scenario::pool_a().with_seed(19));
  const auto typed = session.run_trial<TrialKind::kUplink>(1);
  const auto dynamic = session.run_trial(TrialKind::kUplink, 1);
  ASSERT_EQ(typed.ok(), dynamic.ok());
  if (typed.ok()) {
    const auto& row = std::get<UplinkTrial>(dynamic.value());
    EXPECT_EQ(typed.value().ber, row.ber);
    EXPECT_EQ(typed.value().demod.bits, row.demod.bits);
    EXPECT_EQ(typed.value().demod.snr_db, row.demod.snr_db);
  }
  const auto pool_typed = BatchRunner(2).run<TrialKind::kUplink>(session, 4);
  const auto pool_dynamic = BatchRunner(2).map(4, [&](std::size_t i) {
    return session.run_trial(TrialKind::kUplink, i);
  });
  ASSERT_EQ(pool_typed.size(), pool_dynamic.size());
  for (std::size_t i = 0; i < pool_typed.size(); ++i) {
    ASSERT_EQ(pool_typed[i].ok(), pool_dynamic[i].ok()) << i;
    if (pool_typed[i].ok()) {
      const auto& row = std::get<UplinkTrial>(pool_dynamic[i].value());
      EXPECT_EQ(pool_typed[i].value().ber, row.ber) << i;
    }
  }
}

// The core simulators hold no random state: one const instance of each can
// serve every worker, and a trial's result depends only on the seed of the
// noise stream it is handed.  Runs under TSan in CI like the rest of this
// suite.
TEST(SharedSimulators, ResultsDependOnlyOnTheSeed) {
  const core::SimConfig config = Scenario::pool_a().medium;
  core::Placement pl;
  pl.projector = {1.5, 1.5, 0.65};
  pl.hydrophone = {1.5, 2.5, 0.65};
  pl.node = {1.0, 2.0, 0.65};
  const channel::Vec3 second_node{2.0, 2.0, 0.65};
  const core::LinkSimulator link(config, pl);
  const core::MultiNodeSimulator network(config, pl.projector, pl.hydrophone,
                                         {pl.node, second_node});

  const auto proj = core::Projector::ideal(300.0);
  const auto fe15 = circuit::make_recto_piezo(15000.0);
  const std::vector<circuit::RectoPiezo> front_ends{
      fe15, circuit::make_recto_piezo(18000.0)};
  FdmaPlan plan;
  plan.carriers_hz = {15000.0, 18000.0};
  plan.bitrate = 1000.0;
  plan.payload_bits = 32;

  struct Outcome {
    std::vector<double> capture;
    std::vector<double> network_sinr_db;
  };
  const auto trial = [&](std::size_t, Rng& rng) {
    Outcome o;
    const auto bits = rng.bits(32);
    o.capture =
        link.run_uplink(proj, fe15, bits, Waveform{}, rng).hydrophone_v.samples;
    o.network_sinr_db = network.run(proj, front_ends, plan, rng).sinr_after_db;
    return o;
  };

  constexpr std::size_t kTrials = 32;  // 4 workers x 8 trials
  constexpr std::uint64_t kSeed = 61;
  const auto parallel = BatchRunner(4).map_seeded(kTrials, kSeed, trial);
  ASSERT_EQ(parallel.size(), kTrials);
  for (std::size_t i = 0; i < kTrials; ++i) {
    Rng rng(substream_seed(kSeed, i));
    const Outcome serial = trial(i, rng);
    EXPECT_EQ(parallel[i].capture, serial.capture) << i;
    EXPECT_EQ(parallel[i].network_sinr_db, serial.network_sinr_db) << i;
  }
  // Distinct seeds give distinct noise.
  EXPECT_NE(parallel[0].capture, parallel[1].capture);
}

}  // namespace
}  // namespace pab::sim
