#include "util/work_arena.hpp"

#include <algorithm>

namespace ht {

WorkArena& WorkArena::local() {
  thread_local WorkArena arena;
  return arena;
}

WorkArena::Remap WorkArena::begin_remap(std::int32_t universe) {
  HT_CHECK(universe >= 0);
  const auto n = static_cast<std::size_t>(universe);
  if (remap_stamp_.size() < n) {
    remap_stamp_.resize(n, 0);
    remap_value_.resize(n, -1);
  }
  if (++epoch_ == 0) {
    // 32-bit epoch wrapped: stale stamps could alias, so wipe once.
    std::fill(remap_stamp_.begin(), remap_stamp_.end(), 0);
    epoch_ = 1;
  }
  Remap remap;
  remap.arena_ = this;
  remap.epoch_ = epoch_;
  return remap;
}

}  // namespace ht
