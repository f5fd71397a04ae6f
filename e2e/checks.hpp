// The answer contracts the e2e benchmark checks, as pure predicates so the
// benchmark's own tests can feed them known-bad answers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

/// Cut weights are sums of net weights; allow only rounding slack.
inline bool same_cut(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// An `exact` answer equals the max-flow reference.
inline bool exact_ok(double served, double reference) {
  return same_cut(served, reference);
}

/// A dominating (or set-cut) answer never under-reports the reference.
inline bool dominating_ok(double served, double reference) {
  return served >= reference || same_cut(served, reference);
}

/// A bisection puts exactly n/2 vertices on each side, and the cut it
/// reports is the cut of that side assignment on the original instance.
inline bool bisection_ok(const std::vector<bool>& side, double reported_cut,
                         double recomputed_cut) {
  const auto ones = std::count(side.begin(), side.end(), true);
  return side.size() % 2 == 0 &&
         static_cast<std::size_t>(ones) * 2 == side.size() &&
         same_cut(reported_cut, recomputed_cut);
}

/// A k-way partition assigns every vertex to a part in [0, k) and every
/// part holds exactly n/k vertices.
inline bool kway_balanced(const std::vector<std::int32_t>& part,
                          std::int32_t k) {
  if (k < 1 || part.size() % static_cast<std::size_t>(k) != 0) return false;
  std::vector<std::size_t> size(static_cast<std::size_t>(k), 0);
  for (const std::int32_t p : part) {
    if (p < 0 || p >= k) return false;
    ++size[static_cast<std::size_t>(p)];
  }
  const std::size_t block = part.size() / static_cast<std::size_t>(k);
  return std::all_of(size.begin(), size.end(),
                     [&](std::size_t s) { return s == block; });
}

}  // namespace e2e
