// The campaign loop: one path from (CampaignSpec, RunOptions) to a
// CampaignResult -- per-point record batches in trial order, plus the
// campaign's merged metrics -- whichever executor runs the shards.
//
// The executors differ only in how one shard runs: BatchExecutor calls
// campaign::run_shard in-process, ProcessExecutor sends the shard to a
// pab_worker process that calls it there.  So for the same spec both
// produce byte-identical records_bytes(), identical deterministic counters
// and the same error.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/record.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::campaign {

struct RunOptions {
  std::uint64_t shard_size = 32;  // trials per shard (0 = one shard per point)
  unsigned worker_threads = 1;    // threads the campaign's shards and trials share
  unsigned workers = 3;           // ProcessExecutor: worker process count
                                  // (0 = 1; at most BatchRunner::kMaxThreads)
  std::string worker_binary;      // ProcessExecutor: path to pab_worker
  std::string checkpoint_dir;     // empty = no checkpointing
  bool resume = false;            // fold in a previous pass's finished shards
  // Test/ops hook: stop (kTimeout error, progress checkpointed)
  // after this many newly-executed shards; 0 = run to completion.  This is
  // how the test suite kills a campaign mid-flight deterministically.
  std::uint64_t max_shards = 0;
};

// The assembled campaign: spec echo, one batch per operating point (trials
// in order), and the shard metrics deltas folded in shard-index order.
struct CampaignResult {
  CampaignSpec spec;
  std::uint64_t fingerprint = 0;
  std::vector<RecordBatch> points;
  obs::MetricsSnapshot metrics;

  // Canonical bytes of every point batch -- the cross-executor equality
  // token, and the payload of pab_serve's `.records` artifact.
  [[nodiscard]] std::string records_bytes() const;
  // Per-point aggregates (trial/ok/error counts, per-column means over ok
  // rows with compensated summation) as JSON, for humans and CI.
  [[nodiscard]] std::string summary_json() const;
};

// kInvalidArgument when a worker count -- threads or processes; it arrives
// from outside the program, in RunOptions or a kSpec frame -- is above
// sim::BatchRunner::kMaxThreads.  Checked before any runner is built or
// worker spawned.
[[nodiscard]] pab::Expected<bool> check_worker_threads(std::uint64_t threads);

// The one fold of shard outputs into a CampaignResult.  Outputs arrive in
// any order (shards finish concurrently, or come back from other
// processes); each is folded in shard-index order -- its rows appended to
// its point, its metrics delta merged -- as soon as every lower-index shard
// has been, and one that arrives early waits until then.  The result is the
// same bytes and the same merge sequence whatever the arrival order.
class ShardFold {
 public:
  explicit ShardFold(const CampaignSpec& spec);

  // Take one shard's output.  An error (a duplicate shard, a kind mismatch,
  // rows beyond the spec) is sticky: every later call returns it too.
  [[nodiscard]] pab::Expected<bool> add(ShardOutput output);
  // The assembled campaign; an error unless every shard of the spec's
  // compile() partition was folded.
  [[nodiscard]] pab::Expected<CampaignResult> finish() &&;

 private:
  [[nodiscard]] pab::Expected<bool> fold(const ShardOutput& output);

  CampaignResult result_;
  std::map<std::uint64_t, ShardOutput> early_;  // arrived before their turn
  std::uint64_t next_ = 0;                       // shard index folded next
  std::uint64_t point_ = 0;                      // point being filled
  std::uint64_t point_rows_ = 0;                 // its rows so far
  std::optional<pab::Error> error_;
};

// Fold complete shard outputs (all shards of spec.compile(shard_size), in
// any order) into a CampaignResult: feeds a ShardFold, then finishes it.
[[nodiscard]] pab::Expected<CampaignResult> assemble_result(
    const CampaignSpec& spec, std::vector<ShardOutput> shards);

// How one shard runs: campaign::run_shard's signature.  `runner` is the
// campaign's runner, whose idle helpers the shard's trials may borrow.
using RunShard = std::function<pab::Expected<ShardOutput>(
    const CampaignSpec& spec, const Shard& shard,
    const sim::BatchRunner& runner)>;

// The one campaign loop.  Validates the spec and `width` (0 means 1),
// compiles the shards and, with a checkpoint directory, folds the shards a
// previous pass finished.  Then it runs the first max_shards (0 = all)
// pending shards through `run_one` on a sim::BatchRunner of `width`
// threads: shards are claimed in index order and no shard above a failed
// one is claimed, so the lowest failing shard's error is the one returned,
// at any width.  Every output -- run, received or loaded -- must name its
// shard and hold the spec's kind and one row per trial; it is
// checkpointed, then folded, under one lock.  Pending shards left over
// are kTimeout (progress checkpointed; resume finishes them).
[[nodiscard]] pab::Expected<CampaignResult> run_campaign(
    const CampaignSpec& spec, const RunOptions& options, unsigned width,
    const RunShard& run_one);

}  // namespace pab::campaign
