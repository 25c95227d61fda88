// Campaign engine tests: wire codec, spec round-trips, record batches,
// shard-merge associativity, executor byte-identity (in-process vs a
// 3-worker process pool), checkpoint/resume, and manifest validation.
//
// The cross-process tests need the pab_worker binary; the build passes its
// location as PAB_WORKER_BIN when examples are enabled, and the tests skip
// (not fail) without it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/batch_executor.hpp"
#include "campaign/manifest.hpp"
#include "campaign/process_executor.hpp"
#include "campaign/protocol.hpp"
#include "campaign/record.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "obs/metrics.hpp"
#include "sim/batch.hpp"
#include "sim/session.hpp"

namespace {

using namespace pab;
namespace fs = std::filesystem;

// A cheap two-point uplink campaign (16-bit payloads) used throughout.
campaign::CampaignSpec small_uplink_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test";
  spec.preset = "pool_a";
  spec.kind = sim::TrialKind::kUplink;
  spec.trials_per_point = 5;
  spec.base_seed = 7;
  spec.axes.push_back({"waveform.payload_bits", {16.0}});
  spec.axes.push_back({"noise.psd_db_re_upa", {40.0, 55.0}});
  return spec;
}

// Node 0 moved 5 m along x, out of Pool A's 3 m width: every trial is a
// misplaced scenario.
campaign::CampaignSpec node_outside_tank_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test-outside";
  spec.preset = "pool_a";
  spec.kind = sim::TrialKind::kUplink;
  spec.trials_per_point = 2;
  spec.axes.push_back({"placement.node.x", {5.0}});
  return spec;
}

// Schemes 5 and 6 do not exist: shard 0 runs, and shards 1 and 2 fail with
// different messages.
campaign::CampaignSpec bad_schemes_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test-bad-schemes";
  spec.preset = "pool_a";
  spec.kind = sim::TrialKind::kUplink;
  spec.trials_per_point = 1;
  spec.base_seed = 7;
  spec.axes.push_back({"waveform.payload_bits", {16.0}});
  spec.axes.push_back({"waveform.scheme", {0.0, 5.0, 6.0}});
  return spec;
}

campaign::CampaignSpec small_timeline_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test-timeline";
  spec.kind = sim::TrialKind::kTimeline;
  spec.trials_per_point = 4;
  spec.base_seed = 11;
  spec.axes.push_back({"waveform.payload_bits", {32.0, 64.0}});
  spec.timeline["horizon_s"] = 5.0;
  return spec;
}

// A scratch directory that cleans up after itself.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("pab-test-campaign-" + tag + "-" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(CampaignWire, PrimitivesRoundTrip) {
  campaign::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5678e-12);
  w.f64(-0.0);
  w.str("hello");
  w.str("");

  campaign::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1234.5678e-12);
  EXPECT_EQ(r.f64(), 0.0);  // -0.0 compares equal; the bit pattern survives
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(CampaignWire, TruncatedPayloadThrows) {
  campaign::ByteWriter w;
  w.u64(42);
  const std::string bytes = w.bytes().substr(0, 5);
  campaign::ByteReader r(bytes);
  EXPECT_THROW((void)r.u64(), std::runtime_error);
  campaign::ByteReader r2("");
  EXPECT_THROW((void)r2.str(), std::runtime_error);
}

TEST(CampaignWire, MetricsSnapshotRoundTrip) {
  obs::MetricRegistry reg;
  reg.counter("a.count").add(3);
  reg.counter("b.count").add(1);
  reg.gauge("a.gauge").set(2.5);
  reg.histogram("a.hist").observe(0.25);
  reg.histogram("a.hist").observe(4.0);
  const obs::MetricsSnapshot snap = reg.snapshot();

  campaign::ByteWriter w;
  campaign::write_metrics(w, snap);
  campaign::ByteReader r(w.bytes());
  const obs::MetricsSnapshot back = campaign::read_metrics(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  EXPECT_EQ(back.to_json(), snap.to_json());
}

// Untrusted counts are bounded by the bytes left to read: a 9-byte payload
// claiming 2^40 rows is an Expected error, not a runaway reserve().
TEST(CampaignWire, RecordBatchRejectsRowCountBeyondPayload) {
  campaign::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(sim::TrialKind::kUplink));
  w.u64(std::uint64_t{1} << 40);
  campaign::ByteReader r(w.bytes());
  const auto batch = campaign::RecordBatch::deserialize(r);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.error().code, pab::ErrorCode::kInvalidArgument);
}

TEST(CampaignWire, MetricsRejectBucketCountBeyondPayload) {
  campaign::ByteWriter w;
  w.u32(0);  // counters
  w.u32(0);  // gauges
  w.u32(1);  // histograms
  w.str("h");
  w.u32(0xFFFFFFFFu);  // bucket bounds: would also wrap bounds + 1 in u32
  campaign::ByteReader r(w.bytes());
  EXPECT_THROW((void)campaign::read_metrics(r), std::runtime_error);
}

// Regression: decode_spec took any u32 worker thread count from a kSpec
// frame, and the worker built a BatchRunner that wide.
TEST(CampaignWire, SpecFrameRejectsWorkerThreadsAboveTheLimit) {
  campaign::SpecPayload payload;
  payload.fingerprint = 42;
  payload.spec_text = "spec";
  payload.worker_threads = 0xFFFFFFFFu;
  EXPECT_FALSE(campaign::decode_spec(campaign::encode_spec(payload)).ok());
  payload.worker_threads = sim::BatchRunner::kMaxThreads + 1;
  EXPECT_FALSE(campaign::decode_spec(campaign::encode_spec(payload)).ok());
  payload.worker_threads = sim::BatchRunner::kMaxThreads;
  auto decoded = campaign::decode_spec(campaign::encode_spec(payload));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(decoded.value().worker_threads, sim::BatchRunner::kMaxThreads);
}

// A reply is the asked-for shard's output or an error.  Anything else -- a
// truncated or padded payload, another shard's output, a code that is no
// error, a frame of another type -- is nullopt, a dead worker to the serve.
TEST(CampaignWire, RepliesDecodeOnlyForTheirShard) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  auto output = campaign::run_shard(spec, spec.compile(2)[1],
                                    sim::BatchRunner(1, nullptr));
  ASSERT_TRUE(output.ok()) << output.error().message();
  campaign::ByteWriter w;
  output.value().serialize(w);
  const std::string done = w.take();
  const auto decoded =
      campaign::decode_reply({campaign::MsgType::kShardDone, done}, 1);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->value().records.bytes(), output.value().records.bytes());
  EXPECT_EQ(decoded->value().metrics.counters, output.value().metrics.counters);
  EXPECT_FALSE(
      campaign::decode_reply({campaign::MsgType::kShardDone, done}, 2));
  EXPECT_FALSE(
      campaign::decode_reply({campaign::MsgType::kShardDone, done + "x"}, 1));
  EXPECT_FALSE(campaign::decode_reply(
      {campaign::MsgType::kShardDone, done.substr(0, 20)}, 1));
  EXPECT_FALSE(campaign::decode_reply({campaign::MsgType::kSpec, done}, 1));

  const auto error_frame = [](std::uint8_t code, std::string_view detail) {
    campaign::ByteWriter e;
    e.u8(code);
    e.str(detail);
    return campaign::Frame{campaign::MsgType::kError, e.take()};
  };
  const auto failed = campaign::decode_reply(
      error_frame(static_cast<std::uint8_t>(pab::ErrorCode::kTimeout), "late"),
      7);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->code(), pab::ErrorCode::kTimeout);
  EXPECT_EQ(failed->error().message(), "timeout: late");
  EXPECT_FALSE(campaign::decode_reply(error_frame(0, "ok is no error"), 7));
  EXPECT_FALSE(campaign::decode_reply(error_frame(200, "no such code"), 7));
  EXPECT_FALSE(
      campaign::decode_reply({campaign::MsgType::kError, "\x01"}, 7));
}

// The worker answers every kRunShard with one frame: run_shard's error for a
// shard that fails, after which it keeps serving, or the shard's output.
// Closing its input is its normal end.
TEST(CampaignWire, WorkerRepliesToEveryShardAndKeepsServing) {
  const campaign::CampaignSpec spec = bad_schemes_spec();
  int down[2];
  int up[2];
  ASSERT_EQ(::pipe(down), 0);
  ASSERT_EQ(::pipe(up), 0);
  int exit_code = -1;
  std::thread worker(
      [&] { exit_code = campaign::worker_main(down[0], up[1]); });
  campaign::SpecPayload hello;
  hello.fingerprint = spec.fingerprint();
  hello.spec_text = spec.serialize();
  EXPECT_TRUE(campaign::write_frame(down[1], campaign::MsgType::kSpec,
                                    campaign::encode_spec(hello))
                  .ok());
  const sim::BatchRunner runner(1, nullptr);
  const auto shards = spec.compile(1);
  // Shards 2 and 1 fail; shard 0 still runs after them.  No fatal assertion
  // until the worker thread is joined.
  for (const std::size_t k : {2u, 1u, 0u}) {
    const campaign::Shard& shard = shards[k];
    EXPECT_TRUE(campaign::write_frame(down[1], campaign::MsgType::kRunShard,
                                      campaign::encode_shard(shard))
                    .ok());
    const auto frame = campaign::read_frame(up[0]);
    if (!frame.ok()) {
      ADD_FAILURE() << "shard " << k << ": " << frame.error().message();
      break;
    }
    const auto reply = campaign::decode_reply(frame.value(), shard.index);
    if (!reply.has_value()) {
      ADD_FAILURE() << "shard " << k << ": not a reply";
      break;
    }
    const auto expected = campaign::run_shard(spec, shard, runner);
    EXPECT_EQ(reply->ok(), expected.ok()) << "shard " << k;
    if (reply->ok() && expected.ok()) {
      EXPECT_EQ(frame.value().type, campaign::MsgType::kShardDone);
      EXPECT_EQ(reply->value().records.bytes(),
                expected.value().records.bytes());
      EXPECT_EQ(reply->value().metrics.counters,
                expected.value().metrics.counters);
    } else {
      EXPECT_EQ(reply->code(), expected.code()) << "shard " << k;
      EXPECT_EQ(reply->error().message(), expected.error().message());
    }
  }
  ::close(down[1]);
  worker.join();
  EXPECT_EQ(exit_code, 0);
  for (const int fd : {down[0], up[0], up[1]}) ::close(fd);
}

TEST(CampaignSpec, SerializeParseIsFixedPoint) {
  campaign::CampaignSpec spec = small_uplink_spec();
  spec.timeline["horizon_s"] = 12.25;  // exercised even for uplink specs
  const std::string text = spec.serialize();
  auto parsed = campaign::CampaignSpec::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().serialize(), text);
  EXPECT_EQ(parsed.value().fingerprint(), spec.fingerprint());
  EXPECT_EQ(parsed.value().kind, spec.kind);
  EXPECT_EQ(parsed.value().trials_per_point, spec.trials_per_point);
  ASSERT_EQ(parsed.value().axes.size(), spec.axes.size());
  EXPECT_EQ(parsed.value().axes[1].values, spec.axes[1].values);
}

TEST(CampaignSpec, FingerprintSeparatesSpecs) {
  const campaign::CampaignSpec a = small_uplink_spec();
  campaign::CampaignSpec b = a;
  b.base_seed += 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  campaign::CampaignSpec c = a;
  c.axes[1].values.push_back(60.0);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// Fingerprint stability: the scheme seam added a `waveform.scheme` axis and
// LinkQuality record columns, neither of which may perturb the canonical
// serialization of PRE-EXISTING specs -- a checkpoint store keyed by
// fingerprint must keep resuming campaigns written before the seam.  The
// pinned values are the fingerprints those specs have always had; if this
// test fails, checkpoint compatibility is broken, not the test.
TEST(CampaignSpec, FingerprintsOfExistingSpecsAreUnchangedBySchemeSeam) {
  EXPECT_EQ(small_uplink_spec().fingerprint(), 3320668702618809973ull);
  EXPECT_EQ(small_timeline_spec().fingerprint(), 5464704253007108330ull);
  // A spec that *does* sweep the scheme axis gets a distinct fingerprint.
  campaign::CampaignSpec swept = small_uplink_spec();
  swept.axes.push_back({"waveform.scheme", {0.0, 1.0, 2.0}});
  EXPECT_NE(swept.fingerprint(), small_uplink_spec().fingerprint());
}

TEST(CampaignSpec, SchemeAxisAppliesAndBoundsChecks) {
  sim::Scenario s = sim::Scenario::pool_a();
  EXPECT_TRUE(campaign::apply_param(s, "waveform.scheme", 1.0));
  EXPECT_EQ(s.waveform.scheme, phy::SchemeId::kFsk2);
  EXPECT_TRUE(campaign::apply_param(s, "waveform.scheme", 2.0));
  EXPECT_EQ(s.waveform.scheme, phy::SchemeId::kFsk4);
  EXPECT_TRUE(campaign::apply_param(s, "waveform.scheme", 0.0));
  EXPECT_EQ(s.waveform.scheme, phy::SchemeId::kFm0);
  // Out-of-range ordinals are a spec error, not a silent clamp.
  EXPECT_FALSE(campaign::apply_param(s, "waveform.scheme", 3.0));
  EXPECT_FALSE(campaign::apply_param(s, "waveform.scheme", -1.0));
  EXPECT_EQ(s.waveform.scheme, phy::SchemeId::kFm0);  // unchanged on reject
  // And the axis validates end to end.
  campaign::CampaignSpec spec = small_uplink_spec();
  spec.axes.push_back({"waveform.scheme", {0.0, 1.0}});
  EXPECT_TRUE(spec.validate().ok()) << spec.validate().error().message();
}

TEST(CampaignRecord, UplinkRowsCarryLinkQualityColumns) {
  const auto names = campaign::RecordBatch::column_names(sim::TrialKind::kUplink);
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names[6], "evm_rms");
  EXPECT_EQ(names[7], "mer_db");
  EXPECT_EQ(names[8], "cn0_dbhz");

  campaign::RecordBatch batch(sim::TrialKind::kUplink);
  sim::UplinkTrial trial{};
  trial.demod.quality = {0.1, 20.0, 53.0};
  batch.append(0, sim::TrialResult{std::in_place_index<0>, trial});
  EXPECT_EQ(batch.column(6)[0], 0.1);
  EXPECT_EQ(batch.column(7)[0], 20.0);
  EXPECT_EQ(batch.column(8)[0], 53.0);

  const auto field_names =
      campaign::RecordBatch::column_names(sim::TrialKind::kField);
  ASSERT_EQ(field_names.size(), 21u);
  EXPECT_EQ(field_names[18], "evm_rms");
  EXPECT_EQ(field_names[20], "cn0_dbhz");
}

TEST(CampaignSpec, PointDecompositionLastAxisFastest) {
  campaign::CampaignSpec spec;
  spec.axes.push_back({"waveform.bitrate", {100.0, 200.0}});
  spec.axes.push_back({"noise.psd_db_re_upa", {1.0, 2.0, 3.0}});
  EXPECT_EQ(spec.point_count(), 6u);
  EXPECT_EQ(spec.point_values(0), (std::vector<double>{100.0, 1.0}));
  EXPECT_EQ(spec.point_values(1), (std::vector<double>{100.0, 2.0}));
  EXPECT_EQ(spec.point_values(3), (std::vector<double>{200.0, 1.0}));
  EXPECT_EQ(spec.point_values(5), (std::vector<double>{200.0, 3.0}));
}

TEST(CampaignSpec, CompileShardsCoverEveryTrialOnce) {
  campaign::CampaignSpec spec = small_uplink_spec();
  const auto shards = spec.compile(2);
  // 2 points x 5 trials at shard_size 2 -> ceil(5/2) = 3 shards per point.
  ASSERT_EQ(shards.size(), 6u);
  std::uint64_t expected_index = 0;
  for (const auto& s : shards) EXPECT_EQ(s.index, expected_index++);
  for (std::uint64_t point = 0; point < 2; ++point) {
    std::vector<bool> covered(spec.trials_per_point, false);
    for (const auto& s : shards) {
      if (s.point != point) continue;
      for (std::uint64_t t = s.begin; t < s.end; ++t) {
        ASSERT_LT(t, covered.size());
        EXPECT_FALSE(covered[t]);
        covered[t] = true;
      }
    }
    for (bool c : covered) EXPECT_TRUE(c);
  }
  // shard_size 0: one shard per point, whole trial range.
  const auto whole = spec.compile(0);
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].begin, 0u);
  EXPECT_EQ(whole[0].end, spec.trials_per_point);
}

TEST(CampaignSpec, ValidateRejectsUnknownPresetAndParam) {
  campaign::CampaignSpec spec = small_uplink_spec();
  EXPECT_TRUE(spec.validate().ok());
  campaign::CampaignSpec bad_preset = spec;
  bad_preset.preset = "atlantis";
  EXPECT_FALSE(bad_preset.validate().ok());
  campaign::CampaignSpec bad_param = spec;
  bad_param.axes.push_back({"waveform.no_such_knob", {1.0}});
  EXPECT_FALSE(bad_param.validate().ok());
  campaign::CampaignSpec bad_timeline = spec;
  bad_timeline.timeline["warp_factor"] = 9.0;
  EXPECT_FALSE(bad_timeline.validate().ok());
}

// Integer parameters take only whole numbers in [0, 2^53).  Anything else
// used to reach an unchecked static_cast: undefined for -1, NaN, inf and
// 1e300, a silent truncation for 0.5.
TEST(CampaignSpec, IntegerParametersRejectBadValues) {
  const double bad[] = {-1.0, 0.5, std::nan(""),
                        std::numeric_limits<double>::infinity(), 1e300};
  struct Knob {
    const char* preset;
    const char* param;
  };
  const Knob knobs[] = {{"pool_a", "seed"},
                        {"pool_a", "waveform.payload_bits"},
                        {"pool_a", "waveform.scheme"},
                        {"pool_a_concurrent", "fdma.training_bits"},
                        {"pool_a_concurrent", "fdma.payload_bits"},
                        {"open_water_random", "field.population"},
                        {"open_water_clusters", "field.clusters"},
                        {"open_water_random", "field.seed"}};
  for (const Knob& k : knobs) {
    campaign::CampaignSpec spec;
    spec.name = "test-integer";
    spec.preset = k.preset;
    spec.trials_per_point = 1;
    spec.axes.push_back({k.param, {2.0}});
    ASSERT_TRUE(spec.validate().ok()) << k.param;
    for (const double v : bad) {
      spec.axes[0].values = {v};
      const auto valid = spec.validate();
      ASSERT_FALSE(valid.ok()) << k.param << "=" << v;
      EXPECT_EQ(valid.code(), pab::ErrorCode::kInvalidArgument);
      EXPECT_NE(valid.error().message().find(k.param), std::string::npos)
          << valid.error().message();
    }
  }
  campaign::CampaignSpec timeline = small_timeline_spec();
  timeline.timeline["uplink_bits"] = 64.0;
  ASSERT_TRUE(timeline.validate().ok());
  for (const double v : bad) {
    timeline.timeline["uplink_bits"] = v;
    const auto valid = timeline.validate();
    ASSERT_FALSE(valid.ok()) << "uplink_bits=" << v;
    EXPECT_EQ(valid.code(), pab::ErrorCode::kInvalidArgument);
    EXPECT_NE(valid.error().message().find("uplink_bits"), std::string::npos);
  }
}

// Spec text counts are whole decimal numbers.  The stream extraction they
// used to go through read "-1" as 2^64 - 1 and "-5" as 2^64 - 5.
TEST(CampaignSpec, ParseRejectsCountsThatAreNotWholeNumbers) {
  const std::string head =
      "pab-campaign-spec v1\nname c\npreset pool_a\nkind uplink\n";
  const auto parse = [&](const std::string& trials, const std::string& seed) {
    return campaign::CampaignSpec::parse(head + "trials " + trials +
                                         "\nseed " + seed + "\n");
  };
  const auto ok = parse("4", "18446744073709551615");
  ASSERT_TRUE(ok.ok()) << ok.error().message();
  EXPECT_EQ(ok.value().trials_per_point, 4u);
  EXPECT_EQ(ok.value().base_seed, 18446744073709551615u);
  for (const std::string bad :
       {"-1", "-5", "+4", "4x", "1.5", "1e3", "18446744073709551616"}) {
    EXPECT_FALSE(parse(bad, "7").ok()) << "trials " << bad;
    EXPECT_FALSE(parse("4", bad).ok()) << "seed " << bad;
  }
}

// A campaign holds at most 2^24 trials over all its points.  validate()
// used to pass 2^40 trials (compile() then built 2^35 shards, about 1 TiB)
// and four 2^16-value axes, whose point count wrapped to 0.  Only
// validate() runs here: nothing is compiled.
TEST(CampaignSpec, ValidateRefusesCampaignsPastTheTrialLimit) {
  campaign::CampaignSpec spec = small_timeline_spec();
  spec.axes.clear();
  spec.trials_per_point = std::uint64_t{1} << 24;
  EXPECT_TRUE(spec.validate().ok());
  spec.trials_per_point = (std::uint64_t{1} << 24) + 1;
  EXPECT_FALSE(spec.validate().ok());
  spec.trials_per_point = std::uint64_t{1} << 40;
  const auto huge = spec.validate();
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.code(), pab::ErrorCode::kInvalidArgument);

  // 2^12 trials at 2^12 points is the limit; one more point is past it.
  spec.trials_per_point = std::uint64_t{1} << 12;
  std::vector<double> seeds(std::size_t{1} << 12);
  for (std::size_t i = 0; i < seeds.size(); ++i)
    seeds[i] = static_cast<double>(i);
  spec.axes.push_back({"seed", seeds});
  EXPECT_TRUE(spec.validate().ok());
  spec.axes[0].values.push_back(1e6);
  EXPECT_FALSE(spec.validate().ok());

  // 2^64 points: the product overflows a 64-bit count.
  spec.trials_per_point = 1;
  spec.axes.assign(4, {"seed", std::vector<double>(std::size_t{1} << 16, 1.0)});
  EXPECT_FALSE(spec.validate().ok());
}

// A cheap two-point deployment-field campaign.
campaign::CampaignSpec small_field_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test-field";
  spec.preset = "open_water_grid";
  spec.kind = sim::TrialKind::kField;
  spec.trials_per_point = 3;
  spec.base_seed = 5;
  spec.axes.push_back({"field.population", {24.0, 48.0}});
  spec.field["zone_extent_m"] = 60.0;
  return spec;
}

TEST(CampaignSpec, FieldDirectiveRoundTripsAndAppliesAxes) {
  const campaign::CampaignSpec spec = small_field_spec();
  ASSERT_TRUE(spec.validate().ok()) << spec.validate().error().message();
  const std::string text = spec.serialize();
  auto parsed = campaign::CampaignSpec::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().serialize(), text);
  EXPECT_EQ(parsed.value().fingerprint(), spec.fingerprint());
  // field.* axes regenerate the deployment per point.
  auto s0 = spec.scenario_for_point(0);
  auto s1 = spec.scenario_for_point(1);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s0.value().node_count(), 24u);
  EXPECT_EQ(s1.value().node_count(), 48u);
  // The override map reaches the trial options.
  auto opts = spec.trial_options();
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts.value().field.zone_extent_m, 60.0);
  EXPECT_FALSE(opts.value().field.keep_log);  // campaign default
  // Unknown field knobs and field axes on hand-placed presets are rejected.
  campaign::CampaignSpec bad_knob = spec;
  bad_knob.field["warp_factor"] = 9.0;
  EXPECT_FALSE(bad_knob.validate().ok());
  campaign::CampaignSpec tank = spec;
  tank.preset = "pool_a";
  EXPECT_FALSE(tank.validate().ok());
}

TEST(CampaignExecutor, FieldCampaignRunsShardedAndMergesDeterministically) {
  const campaign::CampaignSpec spec = small_field_spec();
  campaign::BatchExecutor executor;
  campaign::RunOptions options;
  options.worker_threads = 2;
  options.shard_size = 1;
  auto sharded = executor.run(spec, options);
  ASSERT_TRUE(sharded.ok()) << sharded.error().message();
  options.shard_size = 0;  // one shard per point
  auto whole = executor.run(spec, options);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(sharded.value().records_bytes(), whole.value().records_bytes());
  ASSERT_EQ(sharded.value().points.size(), spec.point_count());
  // Every row succeeded and the population column tracks the axis.
  for (std::size_t p = 0; p < sharded.value().points.size(); ++p) {
    const campaign::RecordBatch& records = sharded.value().points[p];
    ASSERT_EQ(records.rows(), spec.trials_per_point);
    for (std::size_t i = 0; i < records.rows(); ++i)
      EXPECT_EQ(records.ok()[i], 1) << "point " << p << " trial " << i;
    EXPECT_EQ(records.column(0)[0], p == 0 ? 24.0 : 48.0);
  }
}

// Counters of a campaign run, without the per-participant dispatch counts
// (which thread ran which trial is scheduling, not a result), and the sum
// of those.
std::pair<std::map<std::string, std::uint64_t>, std::uint64_t>
split_worker_counters(const obs::MetricsSnapshot& m) {
  std::map<std::string, std::uint64_t> rest;
  std::uint64_t per_worker = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("sim.batch.worker.", 0) == 0)
      per_worker += value;
    else
      rest.emplace(name, value);
  }
  return {rest, per_worker};
}

// Shards run concurrently and their trials borrow idle helpers, but every
// output folds in shard order: records, summaries and counters do not
// depend on the thread count.
TEST(CampaignExecutor, WorkerThreadsDoNotChangeBytes) {
  for (const campaign::CampaignSpec& spec :
       {small_timeline_spec(), small_field_spec()}) {
    campaign::BatchExecutor executor;
    campaign::RunOptions options;
    options.shard_size = 1;
    options.worker_threads = 1;
    auto serial = executor.run(spec, options);
    ASSERT_TRUE(serial.ok()) << serial.error().message();
    const auto [serial_counters, serial_workers] =
        split_worker_counters(serial.value().metrics);
    EXPECT_EQ(serial_workers, serial_counters.at("sim.batch.trials"));
    for (const unsigned threads : {2u, 4u, 8u}) {
      options.worker_threads = threads;
      auto parallel = executor.run(spec, options);
      ASSERT_TRUE(parallel.ok()) << parallel.error().message();
      EXPECT_EQ(parallel.value().records_bytes(),
                serial.value().records_bytes())
          << spec.name << " at " << threads << " threads";
      EXPECT_EQ(parallel.value().summary_json(), serial.value().summary_json())
          << spec.name << " at " << threads << " threads";
      const auto [counters, workers] =
          split_worker_counters(parallel.value().metrics);
      EXPECT_EQ(counters, serial_counters)
          << spec.name << " at " << threads << " threads";
      EXPECT_EQ(workers, counters.at("sim.batch.trials"))
          << spec.name << " at " << threads << " threads";
    }
  }
}

// After a shard fails no shard above it starts any more, and the error
// returned is the lowest failing shard's, so it does not depend on the
// thread count -- nor on the executor: a worker process replies with
// run_shard's error unchanged, and both executors run one campaign loop.
TEST(CampaignExecutor, FailingShardsReportTheSameErrorAtAnyThreadCount) {
  campaign::CampaignSpec zero_payload = small_uplink_spec();
  zero_payload.axes[0].values = {0.0};  // a zero payload: every trial throws
  for (const campaign::CampaignSpec& spec :
       {zero_payload, bad_schemes_spec()}) {
    campaign::BatchExecutor executor;
    campaign::RunOptions options;
    options.shard_size = 1;
    auto serial = executor.run(spec, options);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.code(), pab::ErrorCode::kInvalidArgument);
    options.worker_threads = 4;
    auto parallel = executor.run(spec, options);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.code(), serial.code());
    EXPECT_EQ(parallel.error().message(), serial.error().message());
#ifdef PAB_WORKER_BIN
    options.worker_threads = 1;
    options.worker_binary = PAB_WORKER_BIN;
    for (const unsigned workers : {1u, 2u, 3u}) {
      options.workers = workers;
      // Two shards fail at once; repeats give the later one chances to
      // finish first.
      for (int repeat = 0; repeat < 5; ++repeat) {
        const auto sharded = campaign::ProcessExecutor().run(spec, options);
        ASSERT_FALSE(sharded.ok());
        EXPECT_EQ(sharded.code(), serial.code())
            << spec.name << " at " << workers << " workers";
        EXPECT_EQ(sharded.error().message(), serial.error().message())
            << spec.name << " at " << workers << " workers";
      }
    }
#endif  // PAB_WORKER_BIN
  }
}

// Regression: a worker thread count from outside the program was never
// bounded; BatchRunner(4294967295) reserved 32 GiB of counter pointers.
// Both executors refuse it before building a runner.
TEST(CampaignExecutor, WorkerThreadsAboveTheLimitAreRejected) {
  const campaign::CampaignSpec spec = node_outside_tank_spec();  // 2 trials
  campaign::RunOptions options;
  options.worker_threads = sim::BatchRunner::kMaxThreads + 1;
  campaign::BatchExecutor batch;
  const auto in_process = batch.run(spec, options);
  ASSERT_FALSE(in_process.ok());
  EXPECT_EQ(in_process.code(), pab::ErrorCode::kInvalidArgument);
  campaign::ProcessExecutor sharded;
  options.worker_binary = "/nonexistent/pab_worker";
  const auto process = sharded.run(spec, options);
  ASSERT_FALSE(process.ok());
  EXPECT_EQ(process.code(), pab::ErrorCode::kInvalidArgument);
  options.worker_threads = 2;
  EXPECT_TRUE(batch.run(spec, options).ok());
  // The worker process count is a width too, refused before any spawn.
  options.workers = sim::BatchRunner::kMaxThreads + 1;
  const auto too_many = sharded.run(spec, options);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.code(), pab::ErrorCode::kInvalidArgument);
}

TEST(CampaignRecord, AppendSliceSerializeRoundTrip) {
  campaign::RecordBatch batch(sim::TrialKind::kUplink);
  sim::UplinkTrial trial{};
  trial.ber = 0.125;
  trial.incident_pressure_pa = 3.5;
  batch.append(0, sim::TrialResult{std::in_place_index<0>, trial});
  batch.append(1, pab::Error{pab::ErrorCode::kDecodeFailure, "no preamble"});
  trial.ber = 0.5;
  batch.append(2, sim::TrialResult{std::in_place_index<0>, trial});

  ASSERT_EQ(batch.rows(), 3u);
  EXPECT_EQ(batch.ok()[0], 1);
  EXPECT_EQ(batch.ok()[1], 0);
  EXPECT_EQ(batch.error_code()[1],
            static_cast<std::uint8_t>(pab::ErrorCode::kDecodeFailure));

  // Rows appended in two batches, then joined, are the same bytes.
  campaign::RecordBatch head(sim::TrialKind::kUplink);
  trial.ber = 0.125;
  head.append(0, sim::TrialResult{std::in_place_index<0>, trial});
  head.append(1, pab::Error{pab::ErrorCode::kDecodeFailure, "no preamble"});
  campaign::RecordBatch tail(sim::TrialKind::kUplink);
  trial.ber = 0.5;
  tail.append(2, sim::TrialResult{std::in_place_index<0>, trial});
  head.append_batch(tail);
  EXPECT_EQ(head.bytes(), batch.bytes());

  campaign::ByteWriter w;
  batch.serialize(w);
  campaign::ByteReader r(w.bytes());
  auto back = campaign::RecordBatch::deserialize(r);
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.value().bytes(), batch.bytes());
  EXPECT_EQ(back.value().rows(), 3u);
  EXPECT_EQ(back.value().kind(), sim::TrialKind::kUplink);
}

// One failed row serializes as kind (1 byte), row count (8), trial index
// (8), ok and error code (1 + 1), then one 8-byte zero per schema column.
TEST(CampaignRecord, ColumnSchemasPerKind) {
  for (const sim::TrialKind kind :
       {sim::TrialKind::kUplink, sim::TrialKind::kNetwork,
        sim::TrialKind::kTimeline, sim::TrialKind::kField}) {
    campaign::RecordBatch batch(kind);
    batch.append(0, pab::Error{pab::ErrorCode::kTimeout, "lost"});
    EXPECT_EQ(batch.bytes().size(),
              19 + 8 * campaign::RecordBatch::column_names(kind).size())
        << sim::to_string(kind);
  }
}

TEST(CampaignRecord, FieldRowsRoundTripThroughTheWire) {
  campaign::RecordBatch batch(sim::TrialKind::kField);
  sim::FieldRunResult field{};
  field.population = 200;
  field.kept_pairs = 1234;
  field.node_hours = 1.5;
  field.identified = {0, 3, 7};
  batch.append(0, sim::TrialResult{std::in_place_index<3>, field});
  ASSERT_EQ(batch.rows(), 1u);
  EXPECT_EQ(batch.column(0)[0], 200.0);
  EXPECT_EQ(batch.column(3)[0], 1234.0);
  EXPECT_EQ(batch.column(13)[0], 3.0);  // identified count
  EXPECT_EQ(batch.column(15)[0], 1.5);
  campaign::ByteWriter w;
  batch.serialize(w);
  campaign::ByteReader r(w.bytes());
  auto back = campaign::RecordBatch::deserialize(r);
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_EQ(back.value().kind(), sim::TrialKind::kField);
  EXPECT_EQ(back.value().bytes(), batch.bytes());
}

// The byte-at-a-time encoder RecordBatch::serialize used before it wrote
// each column with one append: the oracle for the wire bytes.
std::string byte_at_a_time_bytes(const campaign::RecordBatch& batch) {
  std::string out;
  const auto u8 = [&](std::uint8_t v) { out.push_back(static_cast<char>(v)); };
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  u8(static_cast<std::uint8_t>(batch.kind()));
  u64(batch.rows());
  for (const std::uint64_t t : batch.trial()) u64(t);
  for (const std::uint8_t o : batch.ok()) u8(o);
  for (const std::uint8_t e : batch.error_code()) u8(e);
  for (std::size_t c = 0;
       c < campaign::RecordBatch::column_names(batch.kind()).size(); ++c) {
    for (const double v : batch.column(c)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      u64(bits);
    }
  }
  return out;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Every column of every kind, filled with the values whose bit patterns a
// careless bulk copy could change: signed zeros, NaNs with payloads (quiet,
// signalling, negative), subnormals and infinities.
TEST(CampaignRecord, BulkSerializeMatchesByteAtATimeOracle) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      0.0,  -0.0,  from_bits(0x7ff8000000000123ull),
      from_bits(0x7ff0000000000001ull),  from_bits(0xfff8000000000abcull),
      Limits::denorm_min(), -Limits::denorm_min(),
      from_bits(0x000fffffffffffffull), Limits::infinity(),
      -Limits::infinity(), Limits::max(), 1.0 / 3.0};
  std::vector<campaign::RecordBatch> batches;
  for (std::size_t k = 0; k < 4; ++k) {
    const auto kind = static_cast<sim::TrialKind>(k);
    campaign::RecordBatch batch(kind);
    for (std::size_t r = 0; r < specials.size(); ++r) {
      const double x = specials[r];
      const double y = specials[(r + 5) % specials.size()];
      sim::TrialResult row;
      switch (kind) {
        case sim::TrialKind::kUplink: {
          sim::UplinkTrial u{};
          u.ber = x;
          u.demod.snr_db = y;
          u.demod.channel_amp = x;
          u.incident_pressure_pa = y;
          u.modulation_pressure_pa = x;
          u.demod.quality.evm_rms = y;
          u.demod.quality.mer_db = x;
          u.demod.quality.cn0_dbhz = y;
          row.emplace<0>(u);
          break;
        }
        case sim::TrialKind::kNetwork: {
          core::NetworkRunResult n{};
          n.condition_number = x;
          n.aggregate_goodput_bps = y;
          row.emplace<1>(n);
          break;
        }
        case sim::TrialKind::kTimeline: {
          sim::TimelineRunResult t{};
          t.poll.payload_bits_delivered = x;
          t.poll.elapsed_s = y;
          t.simulated_s = x;
          t.harvested_j = y;
          t.consumed_j = x;
          row.emplace<2>(t);
          break;
        }
        case sim::TrialKind::kField: {
          sim::FieldRunResult f{};
          f.cull_radius_m = x;
          f.mean_pair_gain = y;
          f.mean_reader_gain = x;
          f.simulated_s = y;
          f.node_hours = x;
          f.mean_slot_sinr_db = y;
          f.slot_quality.evm_rms = x;
          f.slot_quality.mer_db = y;
          f.slot_quality.cn0_dbhz = x;
          row.emplace<3>(f);
          break;
        }
      }
      batch.append(1000 + r, row);
    }
    batch.append(7, pab::Error{pab::ErrorCode::kDecodeFailure, "no preamble"});
    batches.push_back(batch);
    batches.push_back(campaign::RecordBatch(kind));  // no rows
  }
  for (const campaign::RecordBatch& batch : batches) {
    const std::string want = byte_at_a_time_bytes(batch);
    EXPECT_EQ(batch.bytes(), want) << sim::to_string(batch.kind());
    EXPECT_EQ(batch.serialized_size(), want.size());
    campaign::ByteReader r(want);
    auto back = campaign::RecordBatch::deserialize(r);
    ASSERT_TRUE(back.ok()) << back.error().message();
    EXPECT_EQ(back.value().bytes(), want);
  }
  // A campaign's bytes are its point count and then each batch's bytes.
  campaign::CampaignResult result;
  result.points = batches;
  std::string want;
  for (int i = 0; i < 4; ++i)
    want.push_back(static_cast<char>((batches.size() >> (8 * i)) & 0xff));
  for (const campaign::RecordBatch& batch : batches)
    want += byte_at_a_time_bytes(batch);
  EXPECT_EQ(result.records_bytes(), want);
}

// Merge associativity: any partition of the trial range, executed in any
// order, folds to the same bytes as the unsharded run.
TEST(CampaignMerge, ArbitraryShardBoundariesFoldIdentically) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  campaign::BatchExecutor executor;
  campaign::RunOptions whole;
  whole.shard_size = 0;
  auto reference = executor.run(spec, whole);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  for (const std::uint64_t shard_size : {1u, 2u, 3u}) {
    const auto shards = spec.compile(shard_size);
    std::vector<campaign::ShardOutput> outputs;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
      auto out = campaign::run_shard(spec, *it, sim::BatchRunner(1, nullptr));
      ASSERT_TRUE(out.ok()) << out.error().message();
      outputs.push_back(std::move(out).value());
    }
    auto folded = campaign::assemble_result(spec, std::move(outputs));
    ASSERT_TRUE(folded.ok()) << folded.error().message();
    EXPECT_EQ(folded.value().records_bytes(),
              reference.value().records_bytes())
        << "shard_size " << shard_size;
    EXPECT_EQ(folded.value().metrics.counters,
              reference.value().metrics.counters)
        << "shard_size " << shard_size;
  }
}

// The incremental fold both executors use, fed shards last to first (each
// waits until every lower shard has arrived), equals assemble_result.
TEST(CampaignMerge, ReversedIncrementalFoldEqualsAssembleResult) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  for (const std::uint64_t shard_size : {1u, 2u, 3u}) {
    const auto shards = spec.compile(shard_size);
    std::vector<campaign::ShardOutput> outputs;
    for (const auto& shard : shards) {
      auto out = campaign::run_shard(spec, shard, sim::BatchRunner(1, nullptr));
      ASSERT_TRUE(out.ok()) << out.error().message();
      outputs.push_back(std::move(out).value());
    }
    campaign::ShardFold fold(spec);
    for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
      auto added = fold.add(*it);
      ASSERT_TRUE(added.ok()) << added.error().message();
    }
    auto folded = std::move(fold).finish();
    ASSERT_TRUE(folded.ok()) << folded.error().message();
    auto assembled = campaign::assemble_result(spec, outputs);
    ASSERT_TRUE(assembled.ok()) << assembled.error().message();
    EXPECT_EQ(folded.value().records_bytes(),
              assembled.value().records_bytes())
        << "shard_size " << shard_size;
    EXPECT_EQ(folded.value().metrics.counters,
              assembled.value().metrics.counters)
        << "shard_size " << shard_size;
    EXPECT_EQ(folded.value().metrics.to_json(),
              assembled.value().metrics.to_json())
        << "shard_size " << shard_size;
  }
}

TEST(CampaignMerge, DuplicateShardIsAnError) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  const auto shards = spec.compile(2);
  auto out = campaign::run_shard(spec, shards[0], sim::BatchRunner(1, nullptr));
  ASSERT_TRUE(out.ok());
  campaign::ShardFold fold(spec);
  ASSERT_TRUE(fold.add(out.value()).ok());
  EXPECT_FALSE(fold.add(out.value()).ok());
  EXPECT_FALSE(std::move(fold).finish().ok());
}

TEST(CampaignMerge, MissingShardIsAnError) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  const auto shards = spec.compile(2);
  std::vector<campaign::ShardOutput> outputs;
  for (const auto& s : shards) {
    if (s.index == 1) continue;  // drop one shard
    auto out = campaign::run_shard(spec, s, sim::BatchRunner(1, nullptr));
    ASSERT_TRUE(out.ok());
    outputs.push_back(std::move(out).value());
  }
  auto folded = campaign::assemble_result(spec, std::move(outputs));
  EXPECT_FALSE(folded.ok());
}

TEST(CampaignResume, InterruptedThenResumedMatchesUninterrupted) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  campaign::BatchExecutor executor;

  campaign::RunOptions options;
  options.shard_size = 1;
  auto reference = executor.run(spec, options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  const TempDir dir("resume");
  campaign::RunOptions interrupted = options;
  interrupted.checkpoint_dir = dir.path.string();
  interrupted.max_shards = 3;  // 8 shards total: killed mid-campaign
  auto first = executor.run(spec, interrupted);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), pab::ErrorCode::kTimeout);
  EXPECT_TRUE(fs::exists(dir.path / "manifest"));
  EXPECT_TRUE(fs::exists(dir.path / "shard-0.bin"));

  campaign::RunOptions resumed = interrupted;
  resumed.max_shards = 0;
  resumed.resume = true;
  auto second = executor.run(spec, resumed);
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(second.value().records_bytes(), reference.value().records_bytes());
  EXPECT_EQ(second.value().metrics.counters,
            reference.value().metrics.counters);
}

// Concurrent shards keep the max_shards rule: exactly the first max_shards
// pending shards run and are checkpointed, whatever order they finish in.
TEST(CampaignResume, ConcurrentShardsCheckpointExactlyTheFirstMaxShards) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  campaign::BatchExecutor executor;
  campaign::RunOptions options;
  options.shard_size = 1;
  options.worker_threads = 4;
  auto reference = executor.run(spec, options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  const TempDir dir("concurrent-resume");
  campaign::RunOptions interrupted = options;
  interrupted.checkpoint_dir = dir.path.string();
  interrupted.max_shards = 3;
  auto first = executor.run(spec, interrupted);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), pab::ErrorCode::kTimeout);
  campaign::CheckpointStore manifest(dir.path.string());
  ASSERT_TRUE(manifest.open(spec.fingerprint(), spec.compile(1).size(),
                            /*resume=*/true)
                  .ok());
  EXPECT_EQ(manifest.done(), (std::set<std::uint64_t>{0, 1, 2}));

  campaign::RunOptions resumed = interrupted;
  resumed.max_shards = 0;
  resumed.resume = true;
  auto second = executor.run(spec, resumed);
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(second.value().records_bytes(), reference.value().records_bytes());
  EXPECT_EQ(second.value().summary_json(), reference.value().summary_json());
}

// Every output is checked against its shard before it is folded, one loaded
// from a checkpoint too: a shard file holding another row count is refused.
TEST(CampaignResume, CheckpointedShardWithTheWrongRowCountIsRefused) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  const TempDir dir("wrong-rows");
  campaign::RunOptions options;
  options.shard_size = 1;
  options.checkpoint_dir = dir.path.string();
  options.max_shards = 2;
  ASSERT_EQ(campaign::BatchExecutor().run(spec, options).code(),
            pab::ErrorCode::kTimeout);
  // Shard 0's file now holds trials [0, 2) under index 0.
  auto wide = campaign::run_shard(spec, campaign::Shard{0, 0, 0, 2},
                                  sim::BatchRunner(1, nullptr));
  ASSERT_TRUE(wide.ok()) << wide.error().message();
  campaign::CheckpointStore store(dir.path.string());
  ASSERT_TRUE(store.open(spec.fingerprint(), spec.compile(1).size(),
                         /*resume=*/true)
                  .ok());
  ASSERT_TRUE(store.store(wide.value()).ok());

  options.max_shards = 0;
  options.resume = true;
  const auto resumed = campaign::BatchExecutor().run(spec, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.code(), pab::ErrorCode::kInvalidArgument);
  EXPECT_NE(resumed.error().message().find("shard 0"), std::string::npos)
      << resumed.error().message();
}

TEST(CampaignResume, ManifestRejectsForeignFingerprintAndShardCount) {
  const TempDir dir("manifest");
  campaign::CheckpointStore store(dir.path.string());
  ASSERT_TRUE(store.open(/*fingerprint=*/111, /*shard_count=*/4,
                         /*resume=*/false)
                  .ok());

  campaign::CheckpointStore other(dir.path.string());
  EXPECT_FALSE(other.open(222, 4, /*resume=*/true).ok());  // wrong spec
  EXPECT_FALSE(other.open(111, 5, /*resume=*/true).ok());  // wrong partition
  EXPECT_TRUE(other.open(111, 4, /*resume=*/true).ok());

  // A fresh (non-resume) open clears prior progress.
  campaign::CheckpointStore fresh(dir.path.string());
  ASSERT_TRUE(fresh.open(333, 2, /*resume=*/false).ok());
  campaign::CheckpointStore reread(dir.path.string());
  EXPECT_TRUE(reread.open(333, 2, /*resume=*/true).ok());
  EXPECT_TRUE(reread.done().empty());
}

TEST(CampaignExecutor, RuntimeDispatchMatchesTypedRuns) {
  obs::MetricRegistry reg;
  sim::Scenario scenario = sim::Scenario::pool_a().with_seed(3);
  scenario.waveform.payload_bits = 16;
  const sim::Session session(scenario, &reg);

  auto typed = session.run_trial<sim::TrialKind::kUplink>(2);
  auto dynamic = session.run_trial(sim::TrialKind::kUplink, 2);
  ASSERT_TRUE(typed.ok());
  ASSERT_TRUE(dynamic.ok());
  ASSERT_EQ(dynamic.value().index(), 0u);
  const auto& got = std::get<sim::UplinkTrial>(dynamic.value());
  EXPECT_EQ(got.ber, typed.value().ber);
  EXPECT_EQ(got.demod.snr_db, typed.value().demod.snr_db);
}

// Spec text can place a node outside the tank.  Those trials are
// kInvalidArgument rows, not an exception that aborts the campaign.
TEST(CampaignExecutor, NodeOutsideTheTankYieldsErrorRows) {
  const campaign::CampaignSpec spec = node_outside_tank_spec();
  campaign::BatchExecutor executor;
  campaign::RunOptions options;
  options.shard_size = 1;
  auto sharded = executor.run(spec, options);
  ASSERT_TRUE(sharded.ok()) << sharded.error().message();
  options.shard_size = 0;
  auto whole = executor.run(spec, options);
  ASSERT_TRUE(whole.ok()) << whole.error().message();
  EXPECT_EQ(sharded.value().records_bytes(), whole.value().records_bytes());
  ASSERT_EQ(sharded.value().points.size(), 1u);
  const campaign::RecordBatch& records = sharded.value().points[0];
  ASSERT_EQ(records.rows(), 2u);
  for (std::size_t i = 0; i < records.rows(); ++i) {
    EXPECT_EQ(records.ok()[i], 0) << "trial " << i;
    EXPECT_EQ(records.error_code()[i],
              static_cast<std::uint8_t>(pab::ErrorCode::kInvalidArgument));
  }
  EXPECT_NE(sharded.value().summary_json().find("\"errors\": 2"),
            std::string::npos);
}

// A spec value the simulators reject makes a trial throw: a zero payload
// has no bits to count errors over, and a zero FDMA bitrate puts the
// receiver's low-pass cutoff at 0 Hz.  Both executors report it as an error;
// neither aborts the process.
TEST(CampaignExecutor, SimulatorRejectionIsAnError) {
  campaign::CampaignSpec zero_payload = small_uplink_spec();
  zero_payload.axes[0].values = {0.0};
  campaign::CampaignSpec zero_bitrate;
  zero_bitrate.name = "test-zero-bitrate";
  zero_bitrate.preset = "pool_a_concurrent";
  zero_bitrate.kind = sim::TrialKind::kNetwork;
  zero_bitrate.trials_per_point = 2;
  zero_bitrate.axes.push_back({"fdma.bitrate", {0.0}});
  for (const campaign::CampaignSpec& spec : {zero_payload, zero_bitrate}) {
    ASSERT_TRUE(spec.validate().ok()) << spec.name;
    campaign::BatchExecutor batch;
    const auto in_process = batch.run(spec, {});
    ASSERT_FALSE(in_process.ok()) << spec.name;
    EXPECT_EQ(in_process.code(), pab::ErrorCode::kInvalidArgument);
#ifdef PAB_WORKER_BIN
    campaign::ProcessExecutor sharded;
    campaign::RunOptions options;
    options.worker_binary = PAB_WORKER_BIN;
    for (const unsigned workers : {1u, 2u, 3u}) {
      options.workers = workers;
      const auto result = sharded.run(spec, options);
      ASSERT_FALSE(result.ok()) << spec.name;
      EXPECT_EQ(result.code(), in_process.code()) << spec.name;
      EXPECT_EQ(result.error().message(), in_process.error().message())
          << spec.name << " at " << workers << " workers";
    }
#endif  // PAB_WORKER_BIN
  }
}

#ifdef PAB_WORKER_BIN

TEST(CampaignProcess, NodeOutsideTheTankMatchesInProcessBytes) {
  const campaign::CampaignSpec spec = node_outside_tank_spec();
  campaign::BatchExecutor batch;
  campaign::RunOptions options;
  options.shard_size = 1;
  auto reference = batch.run(spec, options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  campaign::ProcessExecutor sharded;
  campaign::RunOptions process_options = options;
  process_options.workers = 2;
  process_options.worker_binary = PAB_WORKER_BIN;
  auto result = sharded.run(spec, process_options);
  ASSERT_TRUE(result.ok()) << result.error().message();
  EXPECT_EQ(result.value().records_bytes(), reference.value().records_bytes());
  EXPECT_EQ(result.value().summary_json(), reference.value().summary_json());
}

TEST(CampaignProcess, ThreeWorkerShardedRunIsByteIdenticalToInProcess) {
  const campaign::CampaignSpec spec = small_uplink_spec();

  campaign::BatchExecutor batch;
  campaign::RunOptions options;
  options.shard_size = 2;
  auto reference = batch.run(spec, options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  campaign::ProcessExecutor sharded;
  campaign::RunOptions process_options = options;
  process_options.workers = 3;
  process_options.worker_binary = PAB_WORKER_BIN;
  auto result = sharded.run(spec, process_options);
  ASSERT_TRUE(result.ok()) << result.error().message();

  EXPECT_EQ(result.value().records_bytes(), reference.value().records_bytes());
  EXPECT_EQ(result.value().metrics.counters,
            reference.value().metrics.counters);
  EXPECT_EQ(result.value().summary_json(), reference.value().summary_json());
}

TEST(CampaignProcess, KilledShardedRunResumesToIdenticalBytes) {
  const campaign::CampaignSpec spec = small_timeline_spec();

  campaign::BatchExecutor batch;
  campaign::RunOptions options;
  options.shard_size = 1;
  auto reference = batch.run(spec, options);
  ASSERT_TRUE(reference.ok()) << reference.error().message();

  const TempDir dir("process-resume");
  campaign::ProcessExecutor sharded;
  campaign::RunOptions interrupted = options;
  interrupted.workers = 2;
  interrupted.worker_binary = PAB_WORKER_BIN;
  interrupted.checkpoint_dir = dir.path.string();
  interrupted.max_shards = 2;
  auto first = sharded.run(spec, interrupted);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), pab::ErrorCode::kTimeout);

  campaign::RunOptions resumed = interrupted;
  resumed.max_shards = 0;
  resumed.resume = true;
  resumed.workers = 3;  // resume with a different pool size on purpose
  auto second = sharded.run(spec, resumed);
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(second.value().records_bytes(), reference.value().records_bytes());
  EXPECT_EQ(second.value().metrics.counters,
            reference.value().metrics.counters);
}

TEST(CampaignProcess, DeadWorkerBinaryReportsError) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  campaign::ProcessExecutor sharded;
  campaign::RunOptions options;
  options.workers = 2;
  options.worker_binary = "/nonexistent/pab_worker";
  auto result = sharded.run(spec, options);
  EXPECT_FALSE(result.ok());
}

// A worker that dies fails its shard with kBusError; every shard's worker
// dies here, so the lowest, shard 0, names the error at any worker count.
TEST(CampaignProcess, DeadWorkerFailsTheLowestShardWithABusError) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  campaign::RunOptions options;
  options.shard_size = 1;
  options.worker_binary = "/nonexistent/pab_worker";
  for (const unsigned workers : {1u, 3u}) {
    options.workers = workers;
    const auto result = campaign::ProcessExecutor().run(spec, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), pab::ErrorCode::kBusError);
    EXPECT_EQ(result.error().message(),
              "peripheral bus error: worker for shard 0 died");
  }
}

#else

TEST(CampaignProcess, DISABLED_NeedsWorkerBinary) {
  GTEST_SKIP() << "PAB_WORKER_BIN not defined (examples disabled)";
}

#endif  // PAB_WORKER_BIN

}  // namespace
