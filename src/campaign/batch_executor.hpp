// BatchExecutor: the in-process campaign executor.
//
// Runs the compiled shard queue on one sim::BatchRunner of
// RunOptions::worker_threads threads: shards are claimed in index order and
// run concurrently, each shard's trials borrow whichever of the runner's
// helpers are idle, and finished shards are checkpointed (when a checkpoint
// directory is configured) and folded in shard-index order as they finish.
// This is both the reference implementation the multi-process executor is
// asserted against and the sensible default for campaigns that fit one
// machine.
#pragma once

#include "campaign/executor.hpp"

namespace pab::campaign {

class BatchExecutor : public Executor {
 public:
  [[nodiscard]] pab::Expected<CampaignResult> run(
      const CampaignSpec& spec, const RunOptions& options) override;
};

}  // namespace pab::campaign
