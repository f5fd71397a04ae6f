// Per-thread scratch arena for the zero-rebuild decomposition stack.
//
// One service, allocation-free on the steady path: epoch-stamped remaps.
// The decomposition-tree split oracle and the Theorem 1 profile gap-fill
// need an old-id -> local-id map over the parent universe at every
// recursion level. Allocating (or clearing) an O(n) array per level turns
// the recursion quadratic in allocations; the arena instead keeps one stamp
// array per thread and invalidates it by bumping an epoch counter, so
// begin_remap() is O(1) amortized.
//
// The arena is strictly thread-local (WorkArena::local()); no
// synchronization. Flow queries need no scratch here: each reads its
// witness off the network's own residual marks (flow/cut_engine.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace ht {

class WorkArena {
 public:
  /// The calling thread's arena (constructed on first use).
  static WorkArena& local();

  // --- epoch-stamped remap -------------------------------------------------

  /// Borrowed handle into the arena's remap buffers. Valid until the next
  /// begin_remap() on the same thread (enforced by HT_DCHECK).
  class Remap {
   public:
    void set(std::int32_t old_id, std::int32_t local_id) {
      HT_DCHECK(live());
      arena_->remap_stamp_[static_cast<std::size_t>(old_id)] = epoch_;
      arena_->remap_value_[static_cast<std::size_t>(old_id)] = local_id;
    }
    /// -1 when old_id was not set in this epoch.
    std::int32_t get(std::int32_t old_id) const {
      HT_DCHECK(live());
      return arena_->remap_stamp_[static_cast<std::size_t>(old_id)] == epoch_
                 ? arena_->remap_value_[static_cast<std::size_t>(old_id)]
                 : -1;
    }
    bool live() const { return arena_ != nullptr && arena_->epoch_ == epoch_; }

   private:
    friend class WorkArena;
    WorkArena* arena_ = nullptr;
    std::uint32_t epoch_ = 0;
  };

  /// Starts a fresh remap over ids [0, universe). Invalidates the previous
  /// Remap handle of this thread; O(universe) only when the buffer grows
  /// or the 32-bit epoch wraps.
  Remap begin_remap(std::int32_t universe);

 private:
  std::vector<std::uint32_t> remap_stamp_;
  std::vector<std::int32_t> remap_value_;
  std::uint32_t epoch_ = 0;
};

}  // namespace ht
