// Allocation-regression suite.  This binary links pab::alloccount, which
// replaces global operator new/delete with counting versions, so it can
// assert the ISSUE's core claim: after warm-up, a steady-state Monte-Carlo
// uplink trial performs ZERO heap allocations -- every buffer lives in the
// pooled Workspace arena or in capacity retained by the reused UplinkTrial.
#include <gtest/gtest.h>
#include <unistd.h>

#include <random>
#include <vector>

#include "campaign/wire.hpp"
#include "circuit/storage.hpp"
#include "dsp/arena.hpp"
#include "energy/harvester.hpp"
#include "mac/zones.hpp"
#include "mac/scheduler.hpp"
#include "node/lifecycle.hpp"
#include "obs/alloccount.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/batch.hpp"
#include "sim/field.hpp"
#include "sim/session.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

TEST(ZeroAlloc, CountingAllocatorIsLinked) {
  ASSERT_TRUE(obs::alloc_counting_enabled());
  const obs::AllocScope scope;
  auto* p = new int(7);
  EXPECT_GE(scope.allocations(), 1u);
  EXPECT_GE(scope.bytes(), sizeof(int));
  delete p;
}

// substream_seed replaces std::seed_seq (whose generate() heap-allocates)
// with an open-coded copy of the same [rand.util.seedseq] algorithm.  It must
// be bit-equal -- the per-trial RNG substreams, and therefore every figure,
// depend on it.
TEST(ZeroAlloc, SubstreamSeedMatchesStdSeedSeq) {
  const auto reference = [](std::uint64_t base, std::uint64_t stream) {
    std::seed_seq seq{static_cast<std::uint32_t>(base),
                      static_cast<std::uint32_t>(base >> 32),
                      static_cast<std::uint32_t>(stream),
                      static_cast<std::uint32_t>(stream >> 32)};
    std::uint32_t out[2];
    seq.generate(out, out + 2);
    return (static_cast<std::uint64_t>(out[1]) << 32) | out[0];
  };

  std::mt19937_64 gen(12345);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t base = gen();
    const std::uint64_t stream = gen();
    ASSERT_EQ(reference(base, stream), sim::substream_seed(base, stream))
        << "base=" << base << " stream=" << stream;
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0xffffffff}, std::uint64_t{0x100000000}}) {
    ASSERT_EQ(reference(v, v), sim::substream_seed(v, v));
    ASSERT_EQ(reference(v, 0), sim::substream_seed(v, 0));
    ASSERT_EQ(reference(0, v), sim::substream_seed(0, v));
  }
}

TEST(ZeroAlloc, SubstreamSeedItselfAllocatesNothing) {
  // Warm nothing -- the whole point is that it never touches the heap.
  const obs::AllocScope scope;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) acc ^= sim::substream_seed(42, i);
  EXPECT_NE(0u, acc);
  EXPECT_EQ(0u, scope.allocations());
}

TEST(ZeroAlloc, ArenaAllocationsAreBumpOnly) {
  dsp::Arena arena(1 << 16);
  {
    // First use allocates the initial block lazily; warm it before counting.
    const auto frame = arena.frame();
    (void)arena.alloc<double>(512);
    (void)arena.alloc<dsp::cplx>(512);
  }
  const obs::AllocScope scope;
  for (int round = 0; round < 100; ++round) {
    const auto frame = arena.frame();
    const auto a = arena.alloc<double>(512);
    const auto b = arena.alloc<dsp::cplx>(512);
    a[0] = 1.0;
    b[0] = {2.0, 3.0};
  }
  EXPECT_EQ(0u, scope.allocations());
  EXPECT_EQ(0u, arena.used_bytes());  // all frames rewound
  EXPECT_GE(arena.high_water_bytes(), 512 * (sizeof(double) + sizeof(dsp::cplx)));
}

TEST(ZeroAlloc, SteadyStateUplinkTrialAllocatesNothing) {
  // Small payload keeps the test fast; the signal path is the full one.
  obs::MetricRegistry metrics;
  sim::Scenario scenario = sim::Scenario::pool_a().with_seed(99);
  scenario.waveform.payload_bits = 16;
  const sim::Session session(scenario, &metrics);

  sim::UplinkTrial trial;
  // Warm-up: grows the workspace arena to its high water mark and sizes the
  // reused output buffers (and any lazily-built caches inside the session).
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto r = session.run_into(i, trial);
    ASSERT_TRUE(r.ok()) << r.error().message();
  }

  const obs::AllocScope scope;
  for (std::uint64_t i = 5; i < 25; ++i) {
    const auto r = session.run_into(i, trial);
    ASSERT_TRUE(r.ok()) << r.error().message();
  }
  EXPECT_EQ(0u, scope.allocations())
      << "steady-state run_into touched the heap (" << scope.allocations()
      << " allocations, " << scope.bytes() << " bytes)";

  // The arena footprint of the trial is visible to observability.
  EXPECT_GT(metrics.gauge("sim.session.arena.capacity_bytes").value(), 0.0);
  EXPECT_GT(metrics.gauge("sim.session.arena.high_water_bytes").value(), 0.0);
}

// The seam contract: every modulation scheme obeys the steady-state
// zero-allocation discipline, not just FM0.  Same harness as above, swept
// over the scheme axis.
TEST(ZeroAlloc, SteadyStateTrialsAllocateNothingForEveryScheme) {
  for (const auto scheme :
       {phy::SchemeId::kFm0, phy::SchemeId::kFsk2, phy::SchemeId::kFsk4}) {
    obs::MetricRegistry metrics;
    sim::Scenario scenario = sim::Scenario::pool_a().with_seed(99);
    scenario.waveform.payload_bits = 16;
    scenario.waveform.scheme = scheme;
    const sim::Session session(scenario, &metrics);

    sim::UplinkTrial trial;
    for (std::uint64_t i = 0; i < 5; ++i) {
      const auto r = session.run_into(i, trial);
      ASSERT_TRUE(r.ok()) << phy::to_string(scheme) << ": "
                          << r.error().message();
    }

    const obs::AllocScope scope;
    for (std::uint64_t i = 5; i < 25; ++i) {
      const auto r = session.run_into(i, trial);
      ASSERT_TRUE(r.ok()) << phy::to_string(scheme) << ": "
                          << r.error().message();
    }
    EXPECT_EQ(0u, scope.allocations())
        << phy::to_string(scheme) << " steady-state run_into touched the heap ("
        << scope.allocations() << " allocations, " << scope.bytes()
        << " bytes)";
  }
}

TEST(ZeroAlloc, RunIntoMatchesRunExactly) {
  obs::MetricRegistry m1, m2;
  sim::Scenario scenario = sim::Scenario::pool_a().with_seed(7);
  scenario.waveform.payload_bits = 16;
  const sim::Session a(scenario, &m1);
  const sim::Session b(scenario, &m2);

  sim::UplinkTrial reused;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto want = a.run_trial<sim::TrialKind::kUplink>(i);
    const auto got = b.run_into(i, reused);
    ASSERT_EQ(want.ok(), got.ok());
    if (!want.ok()) continue;
    EXPECT_EQ(want.value().sent, reused.sent);
    EXPECT_EQ(want.value().demod.bits, reused.demod.bits);
    EXPECT_EQ(want.value().demod.snr_db, reused.demod.snr_db);
    EXPECT_EQ(want.value().ber, reused.ber);
    EXPECT_EQ(want.value().incident_pressure_pa, reused.incident_pressure_pa);
    EXPECT_EQ(want.value().modulation_pressure_pa, reused.modulation_pressure_pa);
  }
}

TEST(ZeroAlloc, RngBitsIntoMatchesBits) {
  Rng a(31337), b(31337);
  const auto want = a.bits(333);
  std::vector<std::uint8_t> got(333);
  b.bits_into(got);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
  // Both consumed the same engine stream.
  EXPECT_EQ(a.bits(10), b.bits(10));
}

// Satellite regression: BatchRunner::count_worker_trials used to build a
// "sim.batch.worker.<t>.trials" string (one heap allocation) on every
// worker's drain.  Counter handles are now resolved once at construction, so
// a warm dispatch with a metrics registry attached allocates no more than
// the same dispatch with metrics disabled.
TEST(ZeroAlloc, BatchDispatchMetricsPathAddsNoAllocations) {
  obs::MetricRegistry reg;
  const sim::BatchRunner with_metrics(2, &reg);
  const sim::BatchRunner without_metrics(2, nullptr);
  const auto work = [](std::size_t i) { return i * 3; };
  (void)with_metrics.map(4, work);  // warm both pools and all instruments
  (void)without_metrics.map(4, work);

  constexpr int kReps = 8;
  const obs::AllocScope with_scope;
  for (int r = 0; r < kReps; ++r) (void)with_metrics.map(4, work);
  const std::uint64_t with_allocs = with_scope.allocations();
  const obs::AllocScope without_scope;
  for (int r = 0; r < kReps; ++r) (void)without_metrics.map(4, work);
  const std::uint64_t without_allocs = without_scope.allocations();

  EXPECT_LE(with_allocs, without_allocs)
      << "metrics accounting allocates on the dispatch hot path";
  EXPECT_GE(reg.counter("sim.batch.trials").value(), 4u * (kReps + 1));
  EXPECT_GE(reg.counter("sim.batch.worker.0.trials").value(), 1u);
}

// A scheduled event is one entry in the queue's heap, whose vector keeps its
// capacity; its label is interned once per Timeline and a short callback
// stays in std::function's inline buffer.  A steady-state event allocates
// nothing.
TEST(ZeroAlloc, ScheduledTimelineEventAllocatesNothing) {
  sim::Timeline tl;
  tl.set_logging(false);
  tl.schedule_in(0.1, "slot");  // warm: the label is interned
  tl.run();

  constexpr std::uint64_t kEvents = 1000;
  std::uint64_t fired = 0;
  const obs::AllocScope scope;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    tl.schedule_in(0.1, "slot");
    fired += tl.step() ? 1 : 0;
  }
  const std::uint64_t allocations = scope.allocations();
  EXPECT_EQ(fired, kEvents);
  EXPECT_EQ(allocations, 0u);
}

// A warm lifecycle tick books its joules into running totals and reschedules
// itself into the capacity its own entry just freed.
TEST(ZeroAlloc, WarmLifecycleTickAllocatesNothing) {
  sim::Timeline tl;
  tl.set_logging(false);
  node::LifecycleConfig lc;
  lc.harvest_power_w = [](double) { return 1e-3; };
  node::NodeLifecycle life(
      1, energy::Harvester{circuit::Supercapacitor(1000e-6)}, lc);
  life.attach(tl, 1e9);
  // Warm past the cold start (~3.1 s at 10 ms ticks), so every label a tick
  // charges is already interned.
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(tl.step());
  ASSERT_TRUE(life.powered());

  constexpr std::uint64_t kTicks = 2000;
  std::uint64_t fired = 0;
  const obs::AllocScope scope;
  for (std::uint64_t i = 0; i < kTicks; ++i) fired += tl.step() ? 1 : 0;
  const std::uint64_t allocations = scope.allocations();
  EXPECT_EQ(fired, kTicks);
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(life.powered());
}

// The zoned inventory's slot books, reply windows and event callbacks keep
// their capacity across frames, so what it allocates grows with zones and
// rounds, not with frames or slots.  (The map-ordered Timeline and
// per-frame slot lists made about 213 allocations per frame.)
TEST(ZeroAlloc, ZonedInventoryAllocatesPerFrameNotPerSlot) {
  sim::FieldSpec spec;
  spec.layout = sim::FieldLayout::kRandom;
  spec.population = 200;
  spec.seed = 21;
  const sim::NodeField field = sim::NodeField::generate(spec);
  // Four 80 m zones in a 2 x 2 grid, every pair adjacent: four colors over
  // two carriers, so two rounds of two concurrent, interfering zones.
  mac::ZoneLayout layout;
  layout.members.resize(4);
  for (std::size_t j = 0; j < field.size(); ++j) {
    const auto& p = field.position(j);
    const std::size_t z = (p.x < 80.0 ? 0 : 1) + (p.y < 80.0 ? 0 : 2);
    layout.members[z].push_back(static_cast<std::uint32_t>(j));
  }
  layout.adjacency = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  const mac::ZoneSchedule schedule = mac::plan_zones(layout);
  ASSERT_EQ(schedule.rounds, 2u);
  std::vector<double> amplitude(field.size());
  for (std::size_t j = 0; j < amplitude.size(); ++j)
    amplitude[j] = 1e-4 * (1.0 + static_cast<double>(j % 7));
  mac::ZonedInventoryOptions options;
  options.interference.enabled = true;
  options.interference.noise_power = 1e-10;
  options.interference.node_amplitude = amplitude;
  mac::InventoryConfig config;
  config.seed = 5;

  sim::Timeline tl;
  tl.set_logging(false);
  const obs::AllocScope scope;
  const mac::ZonedInventoryResult result =
      mac::run_zoned_inventory(layout, schedule, config, tl, options);
  const std::uint64_t allocations = scope.allocations();
  ASSERT_EQ(result.identified.size(), field.size());
  ASSERT_GT(result.sinr_evaluated_slots, 0u);
  ASSERT_GE(result.inventory.frames, 20u);
  EXPECT_LE(allocations, 4 * result.inventory.frames)
      << allocations << " allocations over " << result.inventory.frames
      << " frames";
}

// A scheduler keeps plain books, so building one -- every kTimeline trial
// does -- costs no heap allocation, with or without a timeline.
TEST(ZeroAlloc, PollSchedulerConstructionAllocatesNothing) {
  sim::Timeline tl;
  const obs::AllocScope scope;
  {
    const mac::PollScheduler untimed;
    const mac::PollScheduler timed(mac::SchedulerConfig{}, &tl);
  }
  EXPECT_EQ(scope.allocations(), 0u);
}

// read_frame trusts nothing in the length prefix: a frame that claims 1 GiB
// and then ends after one byte must cost memory for the byte that arrived,
// not for the claim (the whole claimed body used to be allocated up front).
TEST(ZeroAlloc, ReadFrameSizesBodyByBytesReceived) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const unsigned char lying[5] = {0x00, 0x00, 0x00, 0x40, 0x01};  // 1 GiB, 1 byte
  ASSERT_EQ(::write(fds[1], lying, sizeof(lying)),
            static_cast<ssize_t>(sizeof(lying)));
  ::close(fds[1]);

  const obs::AllocScope scope;
  const auto frame = campaign::read_frame(fds[0]);
  const std::uint64_t bytes = scope.bytes();
  ::close(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().message().find("truncated frame"), std::string::npos)
      << frame.error().message();
  EXPECT_LT(bytes, 1u << 20);
}

}  // namespace
}  // namespace pab
