// BatchExecutor: the in-process campaign executor.
//
// Runs the campaign loop (campaign::run_campaign) on one sim::BatchRunner
// of RunOptions::worker_threads threads, each shard through run_shard:
// shards run concurrently, and each shard's trials borrow whichever of the
// runner's helpers are idle.  This is both the reference the multi-process
// executor is asserted against and the sensible default for campaigns that
// fit one machine.
#pragma once

#include "campaign/executor.hpp"

namespace pab::campaign {

class BatchExecutor {
 public:
  [[nodiscard]] pab::Expected<CampaignResult> run(
      const CampaignSpec& spec, const RunOptions& options) const {
    return run_campaign(spec, options, options.worker_threads, run_shard);
  }
};

}  // namespace pab::campaign
