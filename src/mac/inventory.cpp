#include "mac/inventory.hpp"

#include <algorithm>
#include <array>

#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace pab::mac {

std::size_t inventory_slot(std::uint8_t node_id, std::uint64_t frame_nonce,
                           std::size_t slot_count) {
  require(slot_count >= 1, "inventory_slot: need at least one slot");
  // SplitMix64 mixing of (id, nonce): cheap, well distributed, and
  // implementable on the node's MCU.
  const std::uint64_t x =
      splitmix64_finalize(frame_nonce + kSplitMix64Gamma * (node_id + 1ULL));
  return static_cast<std::size_t>(x % slot_count);
}

int adapt_q(int q, std::size_t collisions, std::size_t empties,
            std::size_t singletons, int min_q, int max_q) {
  require(min_q <= max_q, "adapt_q: inverted bounds");
  // Classic heuristic: collisions mean the frame was too small, empties mean
  // it was too large; singletons are just right.
  if (collisions > singletons + empties) return std::min(q + 1, max_q);
  if (empties > collisions + singletons) return std::max(q - 1, min_q);
  return q;
}

AlohaRun::AlohaRun(std::span<const std::uint8_t> population,
                   const InventoryConfig& config)
    : config_(config),
      pending_(population.begin(), population.end()),
      q_(config.initial_q),
      nonce_(config.seed) {
  identified_.reserve(pending_.size());
  require(config.min_q >= 0 && config.min_q <= config.max_q,
          "AlohaRun: invalid q bounds");
  require(config.initial_q >= config.min_q && config.initial_q <= config.max_q,
          "AlohaRun: initial q out of bounds");
}

bool AlohaRun::done() const {
  const int max_frames = std::max(config_.max_frames, 0);
  return pending_.empty() ||
         stats_.frames >= static_cast<std::size_t>(max_frames);
}

std::size_t AlohaRun::announce() {
  ++stats_.frames;
  ++nonce_;
  const std::size_t slot_count = std::size_t{1} << q_;
  stats_.slots += slot_count;
  // Counting sort of the pending ids by slot, stable in pending order.  Every
  // buffer is resized in place, keeping its capacity across frames.
  pick_.resize(pending_.size());
  slots_.assign(slot_count + 1, Slot{});
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    pick_[i] = inventory_slot(pending_[i], nonce_, slot_count);
    ++slots_[pick_[i] + 1].begin;
  }
  for (std::size_t k = 0; k < slot_count; ++k)
    slots_[k + 1].begin += slots_[k].begin;
  assigned_.resize(pending_.size());
  replied_.resize(pending_.size());
  // `replies` serves as the fill cursor, then is reset for the frame.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Slot& slot = slots_[pick_[i]];
    assigned_[slot.begin + slot.replies++] = pending_[i];
  }
  for (Slot& slot : slots_) slot.replies = 0;
  return slot_count;
}

void AlohaRun::reply(std::size_t k, std::uint8_t id) {
  require(slots_[k].replies < assigned(k).size(),
          "AlohaRun::reply: more replies than ids assigned to the slot");
  replied_[slots_[k].begin + slots_[k].replies++] = id;
}

void AlohaRun::close() {
  const std::size_t slot_count = this->slot_count();
  std::size_t singletons = 0, collisions = 0;
  std::array<bool, 256> won{};  // ids identified this frame
  for (std::size_t k = 0; k < slot_count; ++k) {
    const std::span<const std::uint8_t> ids = replied(k);
    if (ids.empty()) continue;
    if (ids.size() > 1 || slots_[k].corrupted) {
      ++collisions;
    } else {
      ++singletons;
      identified_.push_back(ids.front());
      won[ids.front()] = true;
    }
  }
  // Swap-and-compact the identified ids out of `pending` in one pass, O(n)
  // per frame.  Relative order of `pending` is not preserved, which is fine:
  // slot assignment hashes (id, nonce) and never looks at list order.
  for (std::size_t i = 0; i < pending_.size();) {
    if (won[pending_[i]]) {
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
  const std::size_t empties = slot_count - singletons - collisions;
  stats_.singletons += singletons;
  stats_.collisions += collisions;
  stats_.empties += empties;
  q_ = adapt_q(q_, collisions, empties, singletons, config_.min_q,
               config_.max_q);
}

std::vector<std::uint8_t> run_inventory(std::span<const std::uint8_t> population,
                                        const InventoryConfig& config,
                                        InventoryStats* stats) {
  AlohaRun run(population, config);
  while (!run.done()) {
    const std::size_t slot_count = run.announce();
    for (std::size_t k = 0; k < slot_count; ++k)
      for (const std::uint8_t id : run.assigned(k)) run.reply(k, id);
    run.close();
  }
  if (stats != nullptr) *stats = run.stats();
  return run.identified();
}

std::vector<std::uint8_t> run_inventory(std::span<const std::uint8_t> population,
                                        const InventoryConfig& config,
                                        sim::Timeline& timeline,
                                        const TimedInventoryOptions& options,
                                        InventoryStats* stats) {
  require(options.frame_announce_s >= 0.0 && options.slot_s >= 0.0,
          "run_inventory: negative timing");
  AlohaRun run(population, config);
  // A node replies only if it is still available when its slot fires: it
  // may have browned out since the announcement.
  const auto fire = [&run, &options](std::size_t k, double t) {
    for (const std::uint8_t id : run.assigned(k))
      if (!options.available || options.available(id, t)) run.reply(k, id);
  };
  while (!run.done()) {
    timeline.elapse(options.frame_announce_s, "mac.inventory.frame");
    const double frame_start = timeline.now();
    const std::size_t slot_count = run.announce();
    for (std::size_t k = 0; k < slot_count; ++k) {
      const double slot_end =
          frame_start + static_cast<double>(k + 1) * options.slot_s;
      timeline.schedule_at(
          slot_end, "mac.inventory.slot",
          [&fire, k](sim::Timeline& tl) { fire(k, tl.now()); },
          options.slot_s);
    }
    // Run the frame; lifecycle ticks and other queued events interleave with
    // the slots at their own timestamps.
    timeline.run_until(frame_start +
                       static_cast<double>(slot_count) * options.slot_s);
    run.close();
  }
  if (stats != nullptr) *stats = run.stats();
  return run.identified();
}

}  // namespace pab::mac
