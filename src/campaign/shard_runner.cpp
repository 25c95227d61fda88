#include "campaign/shard_runner.hpp"

#include <exception>
#include <string>
#include <utility>

#include "sim/batch.hpp"
#include "sim/session.hpp"

namespace pab::campaign {

void ShardOutput::serialize(ByteWriter& w) const {
  w.u64(shard);
  records.serialize(w);
  write_metrics(w, metrics);
}

pab::Expected<ShardOutput> ShardOutput::deserialize(std::string_view bytes) {
  try {
    ByteReader r(bytes);
    ShardOutput out;
    out.shard = r.u64();
    auto records = RecordBatch::deserialize(r);
    if (!records.ok()) return records.error();
    out.records = std::move(records).value();
    out.metrics = read_metrics(r);
    if (!r.done())
      return pab::Error{pab::ErrorCode::kInvalidArgument,
                        "shard output: trailing bytes"};
    return out;
  } catch (const std::exception& e) {
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      std::string("shard output: ") + e.what()};
  }
}

pab::Expected<ShardOutput> run_shard(const CampaignSpec& spec,
                                     const Shard& shard,
                                     const sim::BatchRunner& runner) {
  if (shard.begin > shard.end || shard.end > spec.trials_per_point ||
      shard.point >= spec.point_count())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "run_shard: shard out of campaign bounds"};
  auto scenario = spec.scenario_for_point(shard.point);
  if (!scenario.ok()) return scenario.error();
  auto opts = spec.trial_options();
  if (!opts.ok()) return opts.error();

  // A fresh registry per shard makes the snapshot a pure per-shard delta:
  // session/cache/dispatch counters start at zero no matter which process or
  // resume pass runs the shard, so folds in shard order reproduce the
  // single-process totals exactly.
  obs::MetricRegistry registry;
  // A spec value the simulators reject (a zero bitrate or payload) throws
  // from the Session's construction or from a trial; either is a bad spec,
  // reported to both executors as the same error.
  try {
    const sim::Session session(std::move(scenario).value(), &registry);
    const sim::BatchRunner shard_runner = runner.with_metrics(&registry);

    ShardOutput out;
    out.shard = shard.index;
    out.records = RecordBatch(spec.kind);
    const std::uint64_t n = shard.end - shard.begin;
    const auto results = shard_runner.map(n, [&](std::size_t i) {
      return session.run_trial(spec.kind, shard.begin + i, opts.value());
    });
    for (std::uint64_t i = 0; i < n; ++i)
      out.records.append(shard.begin + i, results[i]);
    // Snapshot while the Session is alive: taken after it is freed, the
    // snapshots a campaign holds raise campaign_timeline's peak RSS by
    // ~0.2 MB.
    out.metrics = registry.snapshot();
    return out;
  } catch (const std::exception& e) {
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      std::string("run_shard: ") + e.what()};
  }
}

}  // namespace pab::campaign
