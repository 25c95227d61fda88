// Slotted-ALOHA inventory for unknown node populations.
//
// The paper's protocol is "similar to that adopted by RFIDs" (section 3.3.2);
// RFID readers discover unknown tag populations with framed slotted ALOHA
// (EPC Gen2's Q protocol).  The same applies to a PAB reader facing a tank of
// freshly deployed battery-free sensors: it announces a frame of 2^Q reply
// slots, each unidentified node picks one pseudo-randomly, singleton slots
// identify a node, collision slots are retried in the next frame, and Q
// adapts to the observed collision/empty ratio.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pab::sim {
class Timeline;
}  // namespace pab::sim

namespace pab::mac {

struct InventoryConfig {
  int initial_q = 2;       // first frame has 2^q slots
  int min_q = 0;
  int max_q = 8;
  int max_frames = 32;     // give up after this many frames
  std::uint64_t seed = 1;  // reader's frame nonce seed
};

struct InventoryStats {
  std::size_t frames = 0;
  std::size_t slots = 0;       // total reply slots spent
  std::size_t singletons = 0;  // slots that identified a node
  std::size_t collisions = 0;
  std::size_t empties = 0;

  [[nodiscard]] double slot_efficiency() const {
    return slots > 0 ? static_cast<double>(singletons) /
                           static_cast<double>(slots)
                     : 0.0;
  }
};

// Slot a node picks in a frame: a deterministic hash of its id and the
// reader's frame nonce (models the tag's PRNG seeded by the query).
[[nodiscard]] std::size_t inventory_slot(std::uint8_t node_id,
                                         std::uint64_t frame_nonce,
                                         std::size_t slot_count);

// The framed-slotted-ALOHA state machine every inventory driver shares: it
// owns the pending and identified ids, the stats, q, the frame nonce and the
// current frame's slot books.  A driver only supplies the clock -- it
// announces a frame, decides which of the assigned ids actually reply in
// each slot (all of them, or those still powered when the slot fires), and
// closes the frame.  The slot books are flat buffers that keep their
// capacity across frames, so a steady-state frame allocates nothing.
class AlohaRun {
 public:
  AlohaRun(std::span<const std::uint8_t> population,
           const InventoryConfig& config);

  // Every node identified, or max_frames frames run.
  [[nodiscard]] bool done() const;

  // Open the next frame: bump the nonce, count the frame and its 2^q slots,
  // and assign every pending id to the slot its hash picks.  Slot assignment
  // is fixed here (the node PRNG is seeded by the query nonce); whether a
  // node replies is up to the driver.  Returns the frame's slot count.
  std::size_t announce();

  // Slots of the announced frame.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size() - 1; }
  // Ids the announced frame assigns to slot k, in pending order.
  [[nodiscard]] std::span<const std::uint8_t> assigned(std::size_t k) const {
    return {assigned_.data() + slots_[k].begin,
            slots_[k + 1].begin - slots_[k].begin};
  }
  // Ids that replied in slot k so far, in reply order.
  [[nodiscard]] std::span<const std::uint8_t> replied(std::size_t k) const {
    return {replied_.data() + slots_[k].begin, slots_[k].replies};
  }

  // `id`, one of assigned(k), replies in slot k.
  void reply(std::size_t k, std::uint8_t id);
  // The reader sees a CRC failure in slot k: a lone reply there counts as a
  // collision instead of identifying its node.
  void corrupt(std::size_t k) { slots_[k].corrupted = true; }

  // Tally the announced frame from the replies: a singleton identifies its
  // node unless its slot is corrupted.  Identified ids leave `pending` and q
  // adapts.
  void close();

  // Identified ids in discovery order.
  [[nodiscard]] const std::vector<std::uint8_t>& identified() const {
    return identified_;
  }
  [[nodiscard]] const InventoryStats& stats() const { return stats_; }

 private:
  InventoryConfig config_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> identified_;
  InventoryStats stats_;
  int q_ = 0;
  std::uint64_t nonce_ = 0;
  // The announced frame's books: slot k owns [slots_[k].begin,
  // slots_[k + 1].begin) of assigned_ and the same range of replied_, whose
  // first slots_[k].replies entries are filled.  The last entry only closes
  // the final range.
  struct Slot {
    std::size_t begin = 0;
    std::size_t replies = 0;
    bool corrupted = false;
  };
  std::vector<Slot> slots_ = {Slot{}};
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint8_t> replied_;
  std::vector<std::size_t> pick_;  // announce scratch: slot of pending_[i]
};

// Run framed slotted ALOHA over `population` (node ids), every assigned node
// replying in its slot.  Returns the identified ids in discovery order.
// `stats` (optional) receives counters.
[[nodiscard]] std::vector<std::uint8_t> run_inventory(
    std::span<const std::uint8_t> population, const InventoryConfig& config = {},
    InventoryStats* stats = nullptr);

// Timing and availability for the event-driven inventory overload below.
struct TimedInventoryOptions {
  double frame_announce_s = 0.05;  // reader's frame announcement airtime
  double slot_s = 0.02;            // one reply slot
  // A node replies in its slot only if available(id, t) at the slot's end
  // time (the reply must complete) -- a browned-out node misses its slot and
  // is retried in a later frame once it recharges.  Null means always
  // available (then results match the untimed overload exactly).
  std::function<bool(std::uint8_t id, double t)> available;
};

// Event-driven inventory: each frame announcement is elapsed on `timeline`
// ("mac.inventory.frame") and every reply slot is a scheduled event
// ("mac.inventory.slot", value = slot_s) that fires at the slot's end time,
// interleaving with whatever else is on the queue (node lifecycle ticks,
// harvest charging).  Availability is sampled at the slot's fire time, which
// is what lets a node brown out mid-round and rejoin after recharge.  With
// `available == nullptr` the identified order and stats are identical to the
// untimed overload for the same config.
[[nodiscard]] std::vector<std::uint8_t> run_inventory(
    std::span<const std::uint8_t> population, const InventoryConfig& config,
    sim::Timeline& timeline, const TimedInventoryOptions& options = {},
    InventoryStats* stats = nullptr);

// Q adaptation: one step of the classic heuristic -- grow on many
// collisions, shrink on many empties.
[[nodiscard]] int adapt_q(int q, std::size_t collisions, std::size_t empties,
                          std::size_t singletons, int min_q, int max_q);

}  // namespace pab::mac
