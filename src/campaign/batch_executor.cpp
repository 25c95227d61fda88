#include "campaign/batch_executor.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "campaign/manifest.hpp"
#include "sim/batch.hpp"

namespace pab::campaign {

pab::Expected<CampaignResult> BatchExecutor::run(const CampaignSpec& spec,
                                                 const RunOptions& options) {
  auto valid = spec.validate();
  if (!valid.ok()) return valid.error();
  auto threads_ok = check_worker_threads(options.worker_threads);
  if (!threads_ok.ok()) return threads_ok.error();
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
      auto added = fold.add(std::move(loaded).value());
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
  const sim::BatchRunner runner(std::max(1u, options.worker_threads), nullptr);
  std::mutex mutex;  // guards store, fold, failed_at and failure
  std::size_t failed_at = budget;
  std::optional<pab::Error> failure;
  (void)runner.map(budget, [&](std::size_t k) {
    {
      // Claim no shard above a failed one.  Shards are claimed in index
      // order, so the lowest failing shard always runs and its error is
      // the one returned, at any thread count.
      const std::lock_guard lock(mutex);
      if (k > failed_at) return false;
    }
    auto output = run_shard(spec, *pending[k], runner);
    const std::lock_guard lock(mutex);
    // A finished shard is checkpointed before it is folded.
    pab::Expected<bool> done = true;
    if (!output.ok()) done = output.error();
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
