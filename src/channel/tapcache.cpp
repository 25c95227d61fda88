#include "channel/tapcache.hpp"

#include <bit>
#include <cmath>
#include <mutex>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pab::channel {

namespace {

std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

// The SplitMix64 finalizer as a cheap, well-mixed combiner for the key hash.
std::size_t TapCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = kSplitMix64Gamma;
  for (const std::uint64_t b : k.bits)
    h = splitmix64_finalize(h ^ b) + kSplitMix64Gamma;
  return static_cast<std::size_t>(h);
}

TapCache::TapCache(Tank tank, int max_image_order, bool use_image_method,
                   obs::MetricRegistry* metrics, TapQuantization quant)
    : tank_(tank),
      max_image_order_(max_image_order),
      use_image_method_(use_image_method),
      quant_(quant) {
  require(quant_.cell_m >= 0.0, "TapCache: quantization cell must be >= 0");
  if (metrics != nullptr) {
    hits_ = &metrics->counter("channel.tapcache.hits");
    misses_ = &metrics->counter("channel.tapcache.misses");
  }
}

namespace {

double snap(double v, double cell_m) {
  return std::round(v / cell_m) * cell_m;
}

Vec3 snap(const Vec3& p, double cell_m) {
  return {snap(p.x, cell_m), snap(p.y, cell_m), snap(p.z, cell_m)};
}

bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

}  // namespace

const TapCache::Taps* TapCache::taps(const Vec3& a, const Vec3& b,
                                     double freq_hz) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  // In quantized mode the *computation* geometry is the snapped one, so every
  // lookup that maps to a key gets the same bit-identical tap set regardless
  // of which caller populated the entry or on which thread.  Image-method
  // endpoints are canonically ordered (the tap set is reciprocal under swap);
  // free-field taps depend on distance alone, so the key collapses to the
  // quantized distance for maximal sharing across the pair space.
  Vec3 ka = a, kb = b;
  if (quant_.cell_m > 0.0) {
    if (use_image_method_) {
      ka = snap(a, quant_.cell_m);
      kb = snap(b, quant_.cell_m);
      if (lex_less(kb, ka)) std::swap(ka, kb);
    } else {
      ka = Vec3{};
      kb = Vec3{snap(distance(a, b), quant_.cell_m), 0.0, 0.0};
    }
  }
  const Key key{{to_bits(ka.x), to_bits(ka.y), to_bits(ka.z), to_bits(kb.x),
                 to_bits(kb.y), to_bits(kb.z), to_bits(freq_hz)}};
  {
    std::shared_lock lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (hits_ != nullptr) hits_->add();
      return &it->second;
    }
  }
  // Compute outside the lock; a concurrent duplicate computation is benign
  // (both produce identical taps, the first insert wins).  Only the winner
  // counts a miss, so misses equal evaluations however threads interleave.
  Taps computed =
      use_image_method_
          ? image_method_taps(tank_, ka, kb, max_image_order_, freq_hz)
          : free_field_tap(ka, kb, freq_hz, tank_.water);
  std::unique_lock lock(mutex_);
  const auto [it, inserted] = cache_.emplace(key, std::move(computed));
  if (inserted) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    if (misses_ != nullptr) misses_->add();
  } else if (hits_ != nullptr) {
    hits_->add();
  }
  return &it->second;
}

}  // namespace pab::channel
