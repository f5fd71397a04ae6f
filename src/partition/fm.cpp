#include "partition/fm.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "partition/cut_tracker.hpp"

namespace ht::partition {

using ht::hypergraph::EdgeId;
using ht::hypergraph::Hypergraph;
using ht::hypergraph::VertexId;

namespace {

/// (gain, vertex).
using GainEntry = std::pair<double, VertexId>;
using GainHeap = std::vector<GainEntry>;

/// Max-heap order for std::push_heap / std::pop_heap: the top has the
/// largest gain, ties to the smallest vertex id.
bool lower_priority(const GainEntry& a, const GainEntry& b) {
  return a.first < b.first || (a.first == b.first && a.second > b.second);
}

void pop_top(GainHeap& q) {
  std::pop_heap(q.begin(), q.end(), lower_priority);
  q.pop_back();
}

}  // namespace

BisectionSolution fm_refine(const Hypergraph& h, std::vector<bool> start,
                            int max_passes) {
  HT_CHECK(h.finalized());
  const VertexId n = h.num_vertices();
  HT_CHECK(n % 2 == 0 && n >= 2);
  HT_CHECK(start.size() == static_cast<std::size_t>(n));
  const VertexId half = n / 2;
  {
    VertexId count1 = 0;
    for (bool s : start) count1 += s ? 1 : 0;
    HT_CHECK_MSG(count1 == half, "start partition unbalanced");
  }

  CutTracker tracker(h);
  tracker.build(start);

  BisectionSolution best;
  best.side = std::move(start);
  best.cut = tracker.cut();
  best.valid = true;

  const auto un = static_cast<std::size_t>(n);
  std::vector<double> gain(un);
  std::vector<bool> locked(un);
  std::vector<VertexId> dirty_at(un);
  std::vector<VertexId> dirty;
  std::vector<VertexId> move_sequence;
  std::vector<double> cut_after_move;
  move_sequence.reserve(un);
  cut_after_move.reserve(un);
  // One lazy max-heap per side: an entry is stale once its vertex is
  // locked or its gain has changed, and is dropped when it reaches the top.
  GainHeap heap[2];

  for (int pass = 0; pass < max_passes; ++pass) {
    if (pass > 0) tracker.build(best.side);
    double cut = best.cut;
    VertexId on_one = half;
    std::fill(locked.begin(), locked.end(), false);
    std::fill(dirty_at.begin(), dirty_at.end(), -1);
    move_sequence.clear();
    cut_after_move.clear();

    heap[0].clear();
    heap[1].clear();
    for (VertexId v = 0; v < n; ++v) {
      gain[static_cast<std::size_t>(v)] = -tracker.flip_delta(v);
      heap[tracker.on_side(v) ? 1 : 0].push_back(
          {gain[static_cast<std::size_t>(v)], v});
    }
    for (GainHeap& q : heap) std::make_heap(q.begin(), q.end(), lower_priority);
    const auto drop_stale = [&](GainHeap& q) {
      while (!q.empty()) {
        const auto [g, v] = q.front();
        if (!locked[static_cast<std::size_t>(v)] &&
            g == gain[static_cast<std::size_t>(v)])
          break;
        pop_top(q);
      }
    };

    for (VertexId step = 0; step < n; ++step) {
      // Balance rule: imbalance after the move must stay within 1 vertex,
      // so side 0 may move while on_one <= half, side 1 while >= half.
      drop_stale(heap[0]);
      drop_stale(heap[1]);
      const bool can0 = on_one <= half && !heap[0].empty();
      const bool can1 = on_one >= half && !heap[1].empty();
      if (!can0 && !can1) break;
      const bool take1 =
          !can0 || (can1 && lower_priority(heap[0].front(), heap[1].front()));
      const int from = take1 ? 1 : 0;
      const VertexId best_v = heap[from].front().second;
      pop_top(heap[from]);
      const double best_gain = gain[static_cast<std::size_t>(best_v)];

      // Pins whose gain can change: those of nets that pass through a
      // critical pin count (0, 1, size-1 or size on side 1).
      dirty.clear();
      for (EdgeId e : h.incident_edges(best_v)) {
        const std::int32_t size = h.edge_size(e);
        const std::int32_t before = tracker.pins_on_side(e);
        const std::int32_t after = before + (from == 0 ? 1 : -1);
        if (before > 1 && before < size - 1 && after > 1 && after < size - 1)
          continue;
        for (VertexId u : h.pins(e)) {
          const auto idx = static_cast<std::size_t>(u);
          if (locked[idx] || u == best_v || dirty_at[idx] == step) continue;
          dirty_at[idx] = step;
          dirty.push_back(u);
        }
      }
      tracker.flip(best_v);
      locked[static_cast<std::size_t>(best_v)] = true;
      on_one += (from == 0 ? 1 : -1);
      for (VertexId u : dirty) {
        const double g = -tracker.flip_delta(u);
        if (g == gain[static_cast<std::size_t>(u)]) continue;  // still current
        gain[static_cast<std::size_t>(u)] = g;
        GainHeap& q = heap[tracker.on_side(u) ? 1 : 0];
        q.push_back({g, u});
        std::push_heap(q.begin(), q.end(), lower_priority);
      }
      cut -= best_gain;
      move_sequence.push_back(best_v);
      cut_after_move.push_back(on_one == half ? cut : 1e300);
    }

    // Best balanced prefix of the move sequence.
    std::size_t best_prefix = 0;  // 0 = keep the starting partition
    double best_prefix_cut = best.cut;
    for (std::size_t i = 0; i < cut_after_move.size(); ++i) {
      if (cut_after_move[i] < best_prefix_cut - 1e-12) {
        best_prefix_cut = cut_after_move[i];
        best_prefix = i + 1;
      }
    }
    if (best_prefix == 0) break;  // pass produced no balanced improvement
    for (std::size_t i = 0; i < best_prefix; ++i) {
      const auto v = static_cast<std::size_t>(move_sequence[i]);
      best.side[v] = !best.side[v];
    }
    best.cut = best_prefix_cut;
  }
  // Re-evaluate combinatorially: the reported cut is never the incremental
  // accumulator.
  best.cut = h.cut_weight(best.side);
  return best;
}

BisectionSolution fm_bisection(const Hypergraph& h, ht::Rng& rng, int starts,
                               int max_passes) {
  HT_CHECK(h.num_vertices() % 2 == 0 && h.num_vertices() >= 2);
  HT_CHECK_MSG(starts >= 1, "fm_bisection needs starts >= 1, got " << starts);
  const VertexId n = h.num_vertices();
  BisectionSolution best;
  for (int s = 0; s < starts; ++s) {
    std::vector<VertexId> perm(static_cast<std::size_t>(n));
    for (VertexId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng.shuffle(perm);
    std::vector<bool> side(static_cast<std::size_t>(n), false);
    for (VertexId i = 0; i < n / 2; ++i)
      side[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
    BisectionSolution sol = fm_refine(h, std::move(side), max_passes);
    if (!best.valid || sol.cut < best.cut) best = std::move(sol);
  }
  return best;
}

void validate_bisection(const Hypergraph& h, const BisectionSolution& s) {
  HT_CHECK(s.valid);
  HT_CHECK(s.side.size() == static_cast<std::size_t>(h.num_vertices()));
  VertexId on_one = 0;
  for (bool b : s.side) on_one += b ? 1 : 0;
  HT_CHECK_MSG(2 * on_one == h.num_vertices(), "bisection unbalanced");
  const double cut = h.cut_weight(s.side);
  HT_CHECK_MSG(std::fabs(cut - s.cut) <= 1e-6 * (1.0 + std::fabs(cut)),
               "stored cut " << s.cut << " != recomputed " << cut);
}

}  // namespace ht::partition
