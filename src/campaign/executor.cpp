#include "campaign/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <utility>

#include "campaign/manifest.hpp"
#include "sim/batch.hpp"
#include "util/stats.hpp"

namespace pab::campaign {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// An output is folded as `shard` only if it is that shard's: its index, the
// spec's kind and one row per trial.
pab::Expected<bool> check_output(const CampaignSpec& spec, const Shard& shard,
                                 const ShardOutput& output) {
  if (output.shard != shard.index || output.records.kind() != spec.kind ||
      output.records.rows() != shard.end - shard.begin)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign: the output for shard " +
                          std::to_string(shard.index) +
                          " names another shard, kind or row count"};
  return true;
}

}  // namespace

std::string CampaignResult::records_bytes() const {
  std::size_t size = 4;
  for (const auto& batch : points) size += batch.serialized_size();
  ByteWriter w;
  w.reserve(size);
  w.u32(static_cast<std::uint32_t>(points.size()));
  for (const auto& batch : points) batch.serialize(w);
  return w.take();
}

std::string CampaignResult::summary_json() const {
  std::string out = "{\n";
  out += "  \"campaign\": \"" + spec.name + "\",\n";
  out += "  \"fingerprint\": " + std::to_string(fingerprint) + ",\n";
  out += std::string("  \"kind\": \"") + sim::to_string(spec.kind) + "\",\n";
  out += "  \"points\": [";
  const auto names = RecordBatch::column_names(spec.kind);
  for (std::size_t p = 0; p < points.size(); ++p) {
    const RecordBatch& batch = points[p];
    out += p == 0 ? "\n" : ",\n";
    out += "    {\"point\": " + std::to_string(p) + ", \"params\": {";
    const std::vector<double> values = spec.point_values(p);
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      if (a > 0) out += ", ";
      out += "\"" + spec.axes[a].param + "\": " + fmt_double(values[a]);
    }
    std::size_t n_ok = 0;
    for (const std::uint8_t o : batch.ok()) n_ok += o;
    out += "}, \"trials\": " + std::to_string(batch.rows());
    out += ", \"ok\": " + std::to_string(n_ok);
    out += ", \"errors\": " + std::to_string(batch.rows() - n_ok);
    out += ", \"means\": {";
    for (std::size_t c = 0; c < names.size(); ++c) {
      pab::NeumaierSum sum;
      for (std::size_t i = 0; i < batch.rows(); ++i)
        if (batch.ok()[i] != 0) sum.add(batch.column(c)[i]);
      const double mean =
          n_ok > 0 ? sum.value() / static_cast<double>(n_ok) : 0.0;
      if (c > 0) out += ", ";
      out += "\"" + std::string(names[c]) + "\": " + fmt_double(mean);
    }
    out += "}}";
  }
  out += points.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

pab::Expected<bool> check_worker_threads(std::uint64_t threads) {
  if (threads > sim::BatchRunner::kMaxThreads)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "worker count " + std::to_string(threads) +
                          " exceeds the limit of " +
                          std::to_string(sim::BatchRunner::kMaxThreads)};
  return true;
}

ShardFold::ShardFold(const CampaignSpec& spec) {
  result_.spec = spec;
  result_.fingerprint = spec.fingerprint();
  result_.points.assign(spec.point_count(), RecordBatch(spec.kind));
}

pab::Expected<bool> ShardFold::add(ShardOutput output) {
  if (error_) return *error_;
  if (output.shard < next_ || early_.count(output.shard) != 0) {
    error_ = pab::Error{pab::ErrorCode::kInvalidArgument,
                        "campaign fold: duplicate shard " +
                            std::to_string(output.shard)};
    return *error_;
  }
  if (output.shard != next_) {
    early_.emplace(output.shard, std::move(output));
    return true;
  }
  auto folded = fold(output);
  while (folded.ok() && !early_.empty() && early_.begin()->first == next_) {
    const auto node = early_.extract(early_.begin());
    folded = fold(node.mapped());
  }
  if (!folded.ok()) error_ = folded.error();
  return folded;
}

// Shard index k covers trials [k_begin, k_end) of one point, and compile()
// numbers shards in (point, begin) order -- so appending batches in shard
// order reconstructs every point's rows in trial order.
pab::Expected<bool> ShardFold::fold(const ShardOutput& output) {
  ++next_;
  if (output.records.kind() != result_.spec.kind)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign fold: shard kind mismatch"};
  if (point_rows_ == result_.spec.trials_per_point) {
    point_rows_ = 0;
    ++point_;
  }
  if (point_ >= result_.points.size())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign fold: more rows than the spec declares"};
  result_.points[point_].append_batch(output.records);
  point_rows_ += output.records.rows();
  if (point_rows_ > result_.spec.trials_per_point)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign fold: shard rows overflow their point"};
  result_.metrics.merge_from(output.metrics);
  return true;
}

pab::Expected<CampaignResult> ShardFold::finish() && {
  if (error_) return *error_;
  if (!early_.empty())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign fold: missing shard " + std::to_string(next_)};
  if (point_ + 1 != result_.points.size() ||
      point_rows_ != result_.spec.trials_per_point)
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "campaign fold: incomplete campaign (shards missing)"};
  return std::move(result_);
}

pab::Expected<CampaignResult> assemble_result(const CampaignSpec& spec,
                                              std::vector<ShardOutput> shards) {
  ShardFold fold(spec);
  for (ShardOutput& shard : shards) {
    auto added = fold.add(std::move(shard));
    if (!added.ok()) return added.error();
  }
  return std::move(fold).finish();
}

pab::Expected<CampaignResult> run_campaign(const CampaignSpec& spec,
                                           const RunOptions& options,
                                           unsigned width,
                                           const RunShard& run_one) {
  auto valid = spec.validate();
  if (!valid.ok()) return valid.error();
  auto width_ok = check_worker_threads(width);
  if (!width_ok.ok()) return width_ok.error();
  const std::vector<Shard> shards = spec.compile(options.shard_size);

  std::optional<CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    store.emplace(options.checkpoint_dir);
    auto opened =
        store->open(spec.fingerprint(), shards.size(), options.resume);
    if (!opened.ok()) return opened.error();
  }

  ShardFold fold(spec);
  std::vector<const Shard*> pending;
  for (const Shard& shard : shards) {
    if (store.has_value() && store->is_done(shard.index)) {
      auto loaded = store->load(shard.index);
      if (!loaded.ok()) return loaded.error();
      auto added = check_output(spec, shard, loaded.value());
      if (added.ok()) added = fold.add(std::move(loaded).value());
      if (!added.ok()) return added.error();
    } else {
      pending.push_back(&shard);
    }
  }
  // max_shards runs exactly the first max_shards pending shards.
  const std::size_t budget =
      options.max_shards == 0
          ? pending.size()
          : static_cast<std::size_t>(
                std::min<std::uint64_t>(options.max_shards, pending.size()));

  // The runner's trial counts land in each shard's own registry (run_shard
  // takes a with_metrics view), so this runner records nothing itself.
  const sim::BatchRunner runner(std::max(1u, width), nullptr);
  std::mutex mutex;  // guards store, fold, failed_at and failure
  std::size_t failed_at = budget;
  std::optional<pab::Error> failure;
  (void)runner.map(budget, [&](std::size_t k) {
    {
      // Claim no shard above a failed one.  Shards are claimed in index
      // order, so the lowest failing shard always runs and its error is
      // the one returned, at any width.
      const std::lock_guard lock(mutex);
      if (k > failed_at) return false;
    }
    auto output = run_one(spec, *pending[k], runner);
    const std::lock_guard lock(mutex);
    // A finished shard is checkpointed before it is folded.
    pab::Expected<bool> done = true;
    if (!output.ok()) done = output.error();
    if (done.ok()) done = check_output(spec, *pending[k], output.value());
    if (done.ok() && store.has_value()) done = store->store(output.value());
    if (done.ok()) done = fold.add(std::move(output).value());
    if (!done.ok() && k < failed_at) {
      failed_at = k;
      failure = done.error();
    }
    return done.ok();
  });
  if (failure.has_value()) return *failure;
  if (budget < pending.size())
    return pab::Error{pab::ErrorCode::kTimeout,
                      "campaign interrupted after max_shards shards "
                      "(progress checkpointed; re-run with resume)"};
  return std::move(fold).finish();
}

}  // namespace pab::campaign
