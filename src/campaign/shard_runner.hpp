// run_shard: the one way a shard of campaign work ever executes.
//
// Both executors -- the in-process BatchExecutor and the pab_worker side of
// the multi-process ProcessExecutor -- funnel through this function, so the
// bit-identity guarantee between them is structural rather than asserted:
// the same (spec, shard) pair builds the same Session over a fresh isolated
// MetricRegistry, runs the same trial indices through the same unified
// run_trial path, and snapshots the same metrics delta.
#pragma once

#include <string_view>

#include "campaign/record.hpp"
#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::sim {
class BatchRunner;
}  // namespace pab::sim

namespace pab::campaign {

// Everything one finished shard yields: its rows (in trial order) and the
// isolated registry's snapshot (a per-shard metrics delta, exact to merge).
struct ShardOutput {
  std::uint64_t shard = 0;
  RecordBatch records;
  obs::MetricsSnapshot metrics;

  // The one byte encoding of a finished shard: a checkpoint's shard file
  // and a worker's kShardDone frame.  deserialize reads the whole of
  // `bytes` -- untrusted -- and returns kInvalidArgument for anything else.
  void serialize(ByteWriter& w) const;
  [[nodiscard]] static pab::Expected<ShardOutput> deserialize(
      std::string_view bytes);
};

// Execute trials [shard.begin, shard.end) of the shard's operating point on
// `runner` (it may be running other shards at the same time; this shard's
// trials borrow whichever of its helpers are idle).  The shard's
// `sim.batch.*` counts land in its own registry through
// runner.with_metrics.  A trial that fails returns an error row; a spec
// value the simulators reject (the Session's construction or a trial
// throws) is kInvalidArgument.
[[nodiscard]] pab::Expected<ShardOutput> run_shard(
    const CampaignSpec& spec, const Shard& shard,
    const sim::BatchRunner& runner);

}  // namespace pab::campaign
