// ProcessExecutor: the sharded multi-process campaign executor.
//
// Runs the campaign loop (campaign::run_campaign) on a sim::BatchRunner of
// RunOptions::workers threads, each shard on a pab_worker process: a
// participant takes an idle worker (spawning one and sending it the spec
// when none is idle), writes one kRunShard frame and blocks for the one
// reply -- the shard's ShardOutput::serialize bytes, or its run_shard error
// unchanged.  Checkpointing, folding and failure are the loop's, so the
// assembled CampaignResult, or the error, is the in-process run's.
#pragma once

#include "campaign/executor.hpp"

namespace pab::campaign {

class ProcessExecutor {
 public:
  // `options.worker_binary` must point at a pab_worker executable.
  [[nodiscard]] pab::Expected<CampaignResult> run(
      const CampaignSpec& spec, const RunOptions& options) const;
};

}  // namespace pab::campaign
