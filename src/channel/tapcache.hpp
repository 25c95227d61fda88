// Thread-safe memoization of image-method tap sets.
//
// Image-method enumeration is the single hottest per-trial cost of the
// waveform simulators, yet for a fixed scenario only a handful of
// (endpoint, endpoint, carrier) combinations ever occur.  A TapCache computes
// each combination once and hands out pointers to immutable tap sets that
// live as long as the cache; concurrent Monte-Carlo trials
// (sim::BatchRunner) share one cache per session.
//
// Keys compare the exact double bit patterns of the endpoints and frequency:
// two lookups hit the same entry iff they describe bit-identical geometry,
// which is what deterministic replay requires.
//
// Quantized mode (TapQuantization::cell_m > 0) trades per-pair exactness for
// sharing across a deployment-scale pair space: endpoints are snapped to a
// `cell_m` grid (and canonically ordered, image-method reciprocity making the
// swap lossless), or -- in free-field mode, where taps depend on distance
// only -- the key collapses to the quantized pairwise distance.  Crucially
// the taps are *computed at the snapped geometry*, so every member of a cell
// shares one bit-identical tap set no matter which member arrived first or
// which thread inserted it: quantization moves the approximation into the
// key, never into replay determinism.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "channel/tank.hpp"
#include "obs/metrics.hpp"

namespace pab::channel {

// Geometry quantization contract (DESIGN.md §13): cell_m == 0 keeps the
// legacy exact bit-pattern keys; cell_m > 0 snaps each endpoint coordinate to
// the nearest multiple of cell_m before keying *and* computing, so any two
// lookups whose endpoints snap to the same cells (in either order) return the
// same shared tap set.  The worst-case geometric error per endpoint
// coordinate is cell_m / 2.
struct TapQuantization {
  double cell_m = 0.0;
};

class TapCache {
 public:
  using Taps = std::vector<PathTap>;

  // The tank, reflection order, and propagation mode are fixed per cache
  // (they come from the scenario); only geometry and carrier vary per lookup.
  // With a registry the cache reports `channel.tapcache.{hits,misses}`
  // counters (one relaxed atomic increment per lookup).  A cache private to
  // one thread should publish its lookups()/evaluations() once instead: a
  // registry counter is shared by every thread that bumps it.
  TapCache(Tank tank, int max_image_order, bool use_image_method,
           obs::MetricRegistry* metrics = nullptr, TapQuantization quant = {});

  // Memoized taps for the (a -> b, freq_hz) path.  The returned pointer is
  // never null, stays valid for the cache's lifetime and is safe to read
  // from any thread.
  [[nodiscard]] const Taps* taps(const Vec3& a, const Vec3& b,
                                 double freq_hz) const;

  // True when a lookup's key is its quantized distance and frequency and
  // nothing else: free-field taps with cell_m > 0.  Then every path whose
  // distance falls in one distance_bin shares one entry per frequency.
  [[nodiscard]] bool keys_by_distance() const {
    return !use_image_method_ && quant_.cell_m > 0.0;
  }
  // The distance bin of such a key, round(d / cell_m); the key and the
  // computation use the distance distance_bin(d) * cell_m.
  [[nodiscard]] double distance_bin(double d) const {
    return std::round(d / quant_.cell_m);
  }

  // Observability for regression tests: how many tap sets were actually
  // computed vs how many lookups were served.
  [[nodiscard]] std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    std::uint64_t bits[7];  // a.xyz, b.xyz, freq as raw IEEE-754 patterns
    bool operator==(const Key& o) const {
      for (int i = 0; i < 7; ++i)
        if (bits[i] != o.bits[i]) return false;
      return true;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  Tank tank_;
  int max_image_order_;
  bool use_image_method_;
  TapQuantization quant_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;

  mutable std::shared_mutex mutex_;
  // Node-based: an entry's address survives rehashing, which is what lets
  // taps() hand out plain pointers.
  mutable std::unordered_map<Key, Taps, KeyHash> cache_;
  mutable std::atomic<std::uint64_t> evaluations_{0};
  mutable std::atomic<std::uint64_t> lookups_{0};
};

}  // namespace pab::channel
