// Observability layer tests: registry find-or-create semantics, concurrent
// mutation (run under -DPAB_SANITIZE=thread in CI), histogram bucket edges,
// JSON export, and the Session/TapCache wiring that makes cache hit rates
// visible without perturbing determinism.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/batch.hpp"

namespace pab::obs {
namespace {

TEST(MetricRegistry, FindOrCreateReturnsStableInstruments) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g = reg.gauge("x.level");
  g.set(2.5);
  EXPECT_EQ(&g, &reg.gauge("x.level"));
  EXPECT_DOUBLE_EQ(reg.gauge("x.level").value(), 2.5);

  Histogram& h = reg.histogram("x.lat");
  EXPECT_EQ(&h, &reg.histogram("x.lat"));
}

TEST(MetricRegistry, CounterGaugeAccumulate) {
  MetricRegistry reg;
  Counter& c = reg.counter("n");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge& g = reg.gauge("v");
  g.add(0.25);
  g.add(0.50);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

// Edges 1e-6, 2.5e-6, 5e-6, ..., 5, 10 (default_time_buckets, 22 edges).
TEST(Histogram, BucketEdgesAreUpperInclusive) {
  Histogram h;
  ASSERT_EQ(h.bounds().size(), 22u);
  h.observe(0.5e-6);    // <= 1e-6      -> bucket 0
  h.observe(1e-6);      // == edge      -> bucket 0 (upper-inclusive)
  h.observe(1.0001e-6); // just above   -> bucket 1
  h.observe(2.5e-6);    // == edge      -> bucket 1
  h.observe(10.0);      // == last edge -> bucket 21
  h.observe(1e6);       // above all    -> overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(21), 1u);
  EXPECT_EQ(h.bucket_count(22), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5e-6 + 1e-6 + 1.0001e-6 + 2.5e-6 + 10.0 + 1e6, 1e-9);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h;
  // 100 observations spread over (1 ms, 2.4 ms]: all land in the
  // (1 ms, 2.5 ms] bucket.
  for (int i = 1; i <= 100; ++i) h.observe(1e-3 + i * 1.4e-5);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_NEAR(s.quantile(0.5), 1.75e-3, 1e-15);
  EXPECT_NEAR(s.quantile(1.0), 2.5e-3, 1e-15);
  EXPECT_DOUBLE_EQ(Histogram().snapshot().quantile(0.5), 0.0);
}

TEST(MetricRegistry, ConcurrentIncrementsLoseNothing) {
  // Hammer one counter, one gauge, and one histogram from 8 threads; every
  // mutation must land.  CI runs this under TSan (-DPAB_SANITIZE=thread).
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      // Resolve through the registry inside the thread: the find-or-create
      // path itself must be thread-safe, not just the instruments.
      Counter& c = reg.counter("conc.count");
      Gauge& g = reg.gauge("conc.sum");
      Histogram& h = reg.histogram("conc.lat");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1.0);
        h.observe(1e-5);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(reg.counter("conc.count").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("conc.sum").value(), 1.0 * kThreads * kPerThread);
  EXPECT_EQ(reg.histogram("conc.lat").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricRegistry, JsonExportRoundTripsValues) {
  MetricRegistry reg;
  reg.counter("a.count").add(42);
  reg.gauge("a.ratio").set(0.1);  // not exactly representable: needs %.17g
  Histogram& h = reg.histogram("a.lat");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.count\": 42"), std::string::npos) << json;
  // 0.1 printed with enough digits to round-trip the exact double.
  EXPECT_NE(json.find("\"a.ratio\": 0.1000000000000000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\": 0.5, \"count\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\": 2.5, \"count\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos) << json;

  // Exports of an empty registry are valid JSON skeletons, not garbage.
  const std::string empty = MetricRegistry().to_json();
  EXPECT_NE(empty.find("\"counters\": {}"), std::string::npos) << empty;
}

// ---- Session wiring ---------------------------------------------------------

// The counters must agree with the TapCache's own evaluation accounting (the
// tap-evaluation-count regression in test_sim_batch.cpp): 10 trials over one
// geometry/carrier -> 3 misses (3 paths), everything else hits.
TEST(SessionMetrics, TapCacheHitMissCountersMatchCacheAccounting) {
  MetricRegistry reg;
  const sim::Session session(sim::Scenario::pool_a().with_seed(1), &reg);
  const auto trials =
      sim::BatchRunner(4, &reg).run<sim::TrialKind::kUplink>(session, 10);
  for (const auto& t : trials) ASSERT_TRUE(t.ok());

  const auto& cache = *session.tap_cache();
  const std::uint64_t hits = reg.counter("channel.tapcache.hits").value();
  const std::uint64_t misses = reg.counter("channel.tapcache.misses").value();
  EXPECT_EQ(misses, cache.evaluations());
  EXPECT_EQ(hits + misses, cache.lookups());
  EXPECT_EQ(misses, 3u);
  EXPECT_GE(hits, 27u);

  // Modulation cache: one evaluation (miss), the other 9 trials hit.
  EXPECT_EQ(reg.counter("sim.session.modulation_cache_misses").value(), 1u);
  EXPECT_EQ(reg.counter("sim.session.modulation_cache_hits").value(), 9u);

  // Per-trial instrumentation covered every trial.
  EXPECT_EQ(reg.counter("sim.session.trials").value(), 10u);
  EXPECT_EQ(reg.histogram("sim.session.trial_seconds").count(), 10u);
  EXPECT_EQ(reg.counter("sim.batch.trials").value(), 10u);

  // The decode chain's stage timers saw every trial too.
  EXPECT_EQ(reg.histogram("phy.demod.correlate_seconds").count(), 10u);
  EXPECT_EQ(reg.histogram("core.link.decode_seconds").count(), 10u);
}

// Instrumentation must not perturb the RNG substreams: trials through a
// metered session are bit-identical to the same scenario at any thread count
// (the broader determinism matrix lives in test_sim_batch.cpp).
TEST(SessionMetrics, MetricsDoNotPerturbTrialResults) {
  MetricRegistry reg_a, reg_b;
  const sim::Session a(sim::Scenario::pool_a().with_seed(5), &reg_a);
  const sim::Session b(sim::Scenario::pool_a().with_seed(5), &reg_b);
  const auto ta = sim::BatchRunner(1, &reg_a).run<sim::TrialKind::kUplink>(a, 6);
  const auto tb = sim::BatchRunner(4, &reg_b).run<sim::TrialKind::kUplink>(b, 6);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_TRUE(ta[i].ok());
    ASSERT_TRUE(tb[i].ok());
    EXPECT_EQ(ta[i].value().sent, tb[i].value().sent) << i;
    EXPECT_EQ(ta[i].value().ber, tb[i].value().ber) << i;
  }
}

// Regression: Session::run_trial is the one instrumented path, so every trial
// kind counts and times its trials the same way.  kNetwork used to count
// nothing and kTimeline counted only under its own name, which left
// sim.session.trials at zero in the fig10 and FDMA-scaling bench sidecars.
TEST(SessionMetrics, EveryTrialKindIsCountedAndTimed) {
  MetricRegistry reg;
  const sim::BatchRunner pool(4, &reg);
  sim::FieldSpec field;
  field.layout = sim::FieldLayout::kGrid;
  field.population = 40;
  const sim::Session uplink(sim::Scenario::pool_a().with_seed(3), &reg);
  const sim::Session concurrent(sim::Scenario::pool_a_concurrent().with_seed(3),
                                &reg);
  const sim::Session open_water(sim::Scenario::open_water(field), &reg);
  sim::TrialOptions opts;
  opts.timeline.horizon_s = 15.0;  // keep per-trial event counts modest

  const auto kind_trials = [&](sim::TrialKind k) {
    return reg.counter(std::string("sim.session.") + sim::to_string(k) +
                       ".trials")
        .value();
  };
  const auto expect_batch = [&](sim::TrialKind kind,
                                const sim::Session& session, std::size_t n) {
    const std::uint64_t trials = reg.counter("sim.session.trials").value();
    const std::uint64_t timed =
        reg.histogram("sim.session.trial_seconds").count();
    const std::uint64_t own = kind_trials(kind);
    const auto rows = pool.map(
        n, [&](std::size_t i) { return session.run_trial(kind, i, opts); });
    for (const auto& r : rows)
      ASSERT_TRUE(r.ok()) << sim::to_string(kind) << ": "
                          << r.error().message();
    EXPECT_EQ(reg.counter("sim.session.trials").value() - trials, n)
        << sim::to_string(kind);
    EXPECT_EQ(reg.histogram("sim.session.trial_seconds").count() - timed, n)
        << sim::to_string(kind);
    EXPECT_EQ(kind_trials(kind) - own, n) << sim::to_string(kind);
  };
  expect_batch(sim::TrialKind::kUplink, uplink, 8);
  expect_batch(sim::TrialKind::kNetwork, concurrent, 4);
  expect_batch(sim::TrialKind::kTimeline, concurrent, 8);
  expect_batch(sim::TrialKind::kField, open_water, 4);
  EXPECT_EQ(reg.counter("sim.session.trials").value(), 24u);
}

TEST(SessionMetrics, SynthesisStagesAddUpToTheUplinkRun) {
  MetricRegistry reg;
  sim::Scenario sc = sim::Scenario::pool_a().with_seed(5);
  sc.waveform.bitrate = 100.0;
  const sim::Session session(sc, &reg);
  for (std::size_t i = 0; i < 4; ++i)
    (void)session.run_trial<sim::TrialKind::kUplink>(i);

  const Histogram& run = reg.histogram("core.link.uplink_run_seconds");
  ASSERT_EQ(run.count(), 4u);
  double stages = 0.0;
  for (const std::string stage :
       {"switch", "cw", "taps", "scatter", "upconvert", "noise"}) {
    const Histogram& h =
        reg.histogram("core.link.synth." + stage + "_seconds");
    // One sample per trial; taps gets one per tap convolution, three a trial.
    EXPECT_EQ(h.count(), stage == "taps" ? 12u : 4u) << stage;
    stages += h.sum();
  }
  EXPECT_GE(stages, 0.9 * run.sum());
  EXPECT_LE(stages, run.sum());
}

// The uplink trial's two timed stages, synthesis and decode, cover at least
// 95% of the trial: what lies outside them (payload draw, modulation-cache
// lookup, BER) stays visible as synthesis gets cheaper.
TEST(SessionMetrics, UplinkRunAndDecodeAddUpToTheUplinkTrial) {
  for (const double bitrate : {100.0, 5000.0}) {
    MetricRegistry reg;
    sim::Scenario sc = sim::Scenario::pool_a().with_seed(5);
    sc.waveform.bitrate = bitrate;
    const sim::Session session(sc, &reg);
    for (std::size_t i = 0; i < 4; ++i)
      (void)session.run_trial<sim::TrialKind::kUplink>(i);

    const Histogram& trial = reg.histogram("sim.session.trial_seconds");
    ASSERT_EQ(trial.count(), 4u) << bitrate;
    const double stages =
        reg.histogram("core.link.uplink_run_seconds").sum() +
        reg.histogram("core.link.decode_seconds").sum();
    EXPECT_GE(stages, 0.95 * trial.sum()) << bitrate;
    EXPECT_LE(stages, trial.sum()) << bitrate;
  }
}

// The 2000-node field (perfbench's field_2000) takes tens of milliseconds a
// trial, so one preemption between two stage timers cannot cost 10%.
TEST(SessionMetrics, FieldStagesAddUpToTheFieldTrial) {
  MetricRegistry reg;
  sim::FieldSpec field;
  field.layout = sim::FieldLayout::kRandom;
  field.population = 2000;
  const sim::Session session(sim::Scenario::open_water(field), &reg);
  sim::TrialOptions opts;
  // A timeline trial adds no field stage timer to its registry (campaign
  // snapshots carry every instrument a registry holds).
  opts.timeline.horizon_s = 15.0;
  MetricRegistry timeline_reg;
  const sim::Session concurrent(sim::Scenario::pool_a_concurrent(),
                                &timeline_reg);
  ASSERT_TRUE(concurrent.run_trial<sim::TrialKind::kTimeline>(0, opts).ok());
  for (const auto& [name, h] : timeline_reg.snapshot().histograms)
    EXPECT_EQ(name.find("sim.session.field."), std::string::npos) << name;

  opts.field.interference = true;
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(session.run_trial<sim::TrialKind::kField>(i, opts).ok());

  const Histogram& trial = reg.histogram("sim.session.trial_seconds");
  ASSERT_EQ(trial.count(), 4u);
  double stages = 0.0;
  for (const std::string stage :
       {"census", "cull", "zones", "reader_paths", "inventory"}) {
    const Histogram& h = reg.histogram("sim.session.field." + stage + "_seconds");
    EXPECT_EQ(h.count(), 4u) << stage;
    stages += h.sum();
  }
  EXPECT_GE(stages, 0.9 * trial.sum());
  EXPECT_LE(stages, trial.sum());
}

// Worker accounting: every executed trial is attributed to exactly one
// worker, and the per-worker counts sum to the batch total.
TEST(BatchMetrics, PerWorkerTrialCountsSumToTotal) {
  MetricRegistry reg;
  const sim::BatchRunner pool(4, &reg);
  (void)pool.map(64, [](std::size_t i) { return i; });
  std::uint64_t per_worker = 0;
  for (unsigned t = 0; t < pool.threads(); ++t)
    per_worker +=
        reg.counter("sim.batch.worker." + std::to_string(t) + ".trials").value();
  EXPECT_EQ(per_worker, 64u);
  EXPECT_EQ(reg.counter("sim.batch.trials").value(), 64u);
  EXPECT_EQ(reg.histogram("sim.batch.dispatch_seconds").count(), 1u);
}

}  // namespace
}  // namespace pab::obs
