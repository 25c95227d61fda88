// Campaign engine tests: wire codec, spec round-trips, record batches,
// shard-merge associativity, executor byte-identity (in-process vs a
// 3-worker process pool), checkpoint/resume, and manifest validation.
//
// The cross-process tests need the pab_worker binary; the build passes its
// location as PAB_WORKER_BIN when examples are enabled, and the tests skip
// (not fail) without it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/batch_executor.hpp"
#include "campaign/manifest.hpp"
#include "campaign/process_executor.hpp"
#include "campaign/record.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "obs/metrics.hpp"
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

  // slice + append_batch reassembles the original bytes.
  campaign::RecordBatch head = batch.slice(0, 2);
  const campaign::RecordBatch tail = batch.slice(2, 3);
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

TEST(CampaignRecord, ColumnSchemasPerKind) {
  EXPECT_EQ(campaign::RecordBatch::column_names(sim::TrialKind::kUplink).size(),
            campaign::RecordBatch(sim::TrialKind::kUplink).column_count());
  EXPECT_EQ(
      campaign::RecordBatch::column_names(sim::TrialKind::kNetwork).size(),
      campaign::RecordBatch(sim::TrialKind::kNetwork).column_count());
  EXPECT_EQ(
      campaign::RecordBatch::column_names(sim::TrialKind::kTimeline).size(),
      campaign::RecordBatch(sim::TrialKind::kTimeline).column_count());
  EXPECT_EQ(campaign::RecordBatch::column_names(sim::TrialKind::kField).size(),
            campaign::RecordBatch(sim::TrialKind::kField).column_count());
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
      auto out = campaign::run_shard(spec, *it, 1);
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

TEST(CampaignMerge, MissingShardIsAnError) {
  const campaign::CampaignSpec spec = small_timeline_spec();
  const auto shards = spec.compile(2);
  std::vector<campaign::ShardOutput> outputs;
  for (const auto& s : shards) {
    if (s.index == 1) continue;  // drop one shard
    auto out = campaign::run_shard(spec, s, 1);
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

#else

TEST(CampaignProcess, DISABLED_NeedsWorkerBinary) {
  GTEST_SKIP() << "PAB_WORKER_BIN not defined (examples disabled)";
}

#endif  // PAB_WORKER_BIN

}  // namespace
