// Bump-allocated scratch memory for the zero-allocation signal path.
//
// An Arena hands out typed spans from a list of large heap blocks.  Frames
// (RAII) rewind the bump pointer on scope exit, so a Monte-Carlo trial can
// carve out every intermediate waveform it needs and release them all at
// once.  Once the arena has grown to the working-set size of a trial, no
// further heap allocation happens -- the steady-state contract the sim layer
// asserts with a counting allocator.
//
// Growth uses a block *list*, not realloc: spans handed out earlier in a
// frame stay valid when the arena grows mid-frame.  Allocation is served
// from the active block; when it does not fit, the next block (existing or
// newly heap-allocated) becomes active.
//
// Thread affinity: an Arena is single-threaded by design.  Each BatchRunner
// worker leases its own Workspace (and thus Arena) from a pool; see
// src/README.md for the ownership rules.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace pab::dsp {

class Arena {
 public:
  // `initial_bytes` sizes the first block lazily (allocated on first use).
  explicit Arena(std::size_t initial_bytes = kDefaultBlockBytes)
      : initial_bytes_(initial_bytes < kMinBlockBytes ? kMinBlockBytes
                                                      : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // A typed scratch span of `n` elements, aligned to alignof(T) (at most
  // kAlign).  Contents are uninitialized.  Only trivial types: the arena
  // never runs destructors.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena only holds trivial types");
    static_assert(alignof(T) <= kAlign, "type over-aligned for Arena");
    if (n == 0) return {};
    void* p = alloc_bytes(n * sizeof(T));
    return {static_cast<T*>(p), n};
  }

  // As alloc<T>, but zero-filled (all-zero bytes are valid 0.0 / {0,0} for
  // the double / complex<double> payloads the signal path uses).
  template <typename T>
  [[nodiscard]] std::span<T> alloc_zero(std::size_t n) {
    auto s = alloc<T>(n);
    if (!s.empty()) std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

  // RAII frame: rewinds the bump pointer to its construction point on
  // destruction.  Frames nest; destroy in reverse order of construction.
  class Frame {
   public:
    explicit Frame(Arena& arena)
        : arena_(&arena), block_(arena.active_), used_(arena.used_) {}
    ~Frame() { arena_->rewind(block_, used_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena* arena_;
    std::size_t block_;
    std::size_t used_;
  };

  [[nodiscard]] Frame frame() { return Frame(*this); }

  // Rewind everything (keeps the blocks for reuse).
  void reset() { rewind(0, 0); }

  // Grow capacity up front so the first trial does not pay block-by-block
  // doubling.  No-op if already at least `bytes`.
  void reserve(std::size_t bytes) {
    while (capacity_bytes_ < bytes) add_block(bytes - capacity_bytes_);
  }

  // -- stats (feed the obs gauges / bench sidecars) --
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] std::size_t used_bytes() const {
    std::size_t total = used_;
    for (std::size_t b = 0; b < active_ && b < blocks_.size(); ++b)
      total += blocks_[b].size;
    return total;
  }
  [[nodiscard]] std::size_t high_water_bytes() const { return high_water_; }
  // Heap blocks ever allocated: steady state means this stops growing.
  [[nodiscard]] std::size_t block_allocations() const { return blocks_.size(); }

  static constexpr std::size_t kAlign = 16;

 private:
  static constexpr std::size_t kMinBlockBytes = 1024;
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* alloc_bytes(std::size_t bytes) {
    const std::size_t rounded = (bytes + kAlign - 1) & ~(kAlign - 1);
    // Advance to a block with room, appending a new one only when every
    // existing block has been exhausted.
    while (active_ >= blocks_.size() ||
           used_ + rounded > blocks_[active_].size) {
      if (active_ + 1 >= blocks_.size()) add_block(rounded);
      if (active_ < blocks_.size() &&
          used_ + rounded <= blocks_[active_].size)
        break;
      ++active_;
      used_ = 0;
    }
    std::byte* p = blocks_[active_].data.get() + used_;
    used_ += rounded;
    const std::size_t now = used_bytes();
    if (now > high_water_) high_water_ = now;
    return p;
  }

  void add_block(std::size_t at_least) {
    // Geometric growth keeps the block count O(log working-set).
    std::size_t size = blocks_.empty() ? initial_bytes_ : capacity_bytes_;
    if (size < at_least) size = at_least;
    if (size < kMinBlockBytes) size = kMinBlockBytes;
    // alloc() hands out uninitialized memory, so a new block is not zeroed
    // (make_unique would zero-fill every megabyte of a cold trial).
    blocks_.push_back(
        Block{std::make_unique_for_overwrite<std::byte[]>(size), size});
    capacity_bytes_ += size;
  }

  void rewind(std::size_t block, std::size_t used) {
    active_ = block;
    used_ = used;
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;       // index of the block being bumped
  std::size_t used_ = 0;         // bytes used in the active block
  std::size_t capacity_bytes_ = 0;
  std::size_t high_water_ = 0;
  std::size_t initial_bytes_;
};

}  // namespace pab::dsp
