// Generic object pool: a mutex-guarded free list with RAII leases.
//
// Workers lease an object for the duration of one unit of work; on release it
// returns to the free list with its internal state (grown buffers, cached
// members) intact, so steady-state leases perform no heap allocation.  Used
// by sim::Session to keep one phy::Workspace per in-flight trial.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace pab::util {

template <typename T>
class Pool {
 public:
  // RAII lease: returns the object to the pool on destruction.
  class Lease {
   public:
    Lease(Pool* pool, std::unique_ptr<T> obj)
        : pool_(pool), obj_(std::move(obj)) {}
    ~Lease() {
      if (pool_ != nullptr && obj_ != nullptr) pool_->release(std::move(obj_));
    }
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          obj_(std::move(other.obj_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] T& operator*() const { return *obj_; }
    [[nodiscard]] T* operator->() const { return obj_.get(); }

   private:
    Pool* pool_;
    std::unique_ptr<T> obj_;
  };

  // Lease a pooled object, constructing a fresh one (with `args`) only when
  // the free list is empty.
  template <typename... Args>
  [[nodiscard]] Lease lease(Args&&... args) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<T> obj = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(obj));
      }
    }
    return Lease(this, std::make_unique<T>(std::forward<Args>(args)...));
  }

 private:
  void release(std::unique_ptr<T> obj) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(obj));
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace pab::util
