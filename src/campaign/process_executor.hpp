// ProcessExecutor: the sharded multi-process campaign executor.
//
// Forks RunOptions::workers pab_worker processes, each with a pipe pair
// (serve writes frames to the worker's stdin, reads frames from its stdout),
// sends every worker the spec once, then farms the compiled shard queue out
// on demand: whichever worker finishes a shard first gets the next pending
// one.  Record chunks stream back while shards are in flight; finished
// shards are checkpointed exactly as BatchExecutor would, then fed to the
// ShardFold as each kShardDone frame arrives.  Scheduling is
// nondeterministic, results are not: outputs fold in shard-index order, so
// the assembled CampaignResult is byte-identical to the in-process run.
#pragma once

#include "campaign/executor.hpp"

namespace pab::campaign {

class ProcessExecutor : public Executor {
 public:
  // `options.worker_binary` must point at a pab_worker executable.
  [[nodiscard]] pab::Expected<CampaignResult> run(
      const CampaignSpec& spec, const RunOptions& options) override;
};

}  // namespace pab::campaign
