// Executor: the campaign engine's one execution contract.
//
// An Executor turns (CampaignSpec, RunOptions) into a CampaignResult:
// per-point record batches in trial order, plus the campaign's merged
// metrics.  Two implementations ship -- BatchExecutor (in-process, shards
// run concurrently over one sim::BatchRunner) and ProcessExecutor (shards
// farmed to pab_worker processes over the pipe protocol) -- and the contract
// is that for the same spec they produce byte-identical records_bytes() and
// identical deterministic counters, because both sides execute every shard
// through campaign::run_shard and fold outputs through one ShardFold, in
// shard-index order whatever order they finish in.
#pragma once

#include <cstdint>
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

class Executor {
 public:
  virtual ~Executor() = default;
  [[nodiscard]] virtual pab::Expected<CampaignResult> run(
      const CampaignSpec& spec, const RunOptions& options) = 0;
};

// kInvalidArgument when a worker thread count -- it arrives from outside
// the program, in RunOptions or a kSpec frame -- is above
// sim::BatchRunner::kMaxThreads.  Checked before any runner is built.
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

}  // namespace pab::campaign
