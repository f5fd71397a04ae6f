// Incremental hyperedge-cut tracker over a side indicator.
//
// Maintains per-hyperedge pin counts on side 1 so that flipping one vertex
// updates the cut weight in O(degree). Shared by FM refinement, the
// multilevel rebalancer, the sparsest-cut sweep, the unbalanced-k-cut
// portfolio and phase 1 of Theorem 1.
#pragma once

#include <algorithm>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace ht::partition {

class CutTracker {
 public:
  explicit CutTracker(const ht::hypergraph::Hypergraph& h) : h_(h) {
    pins_on_side_.assign(static_cast<std::size_t>(h.num_edges()), 0);
    side_.assign(static_cast<std::size_t>(h.num_vertices()), false);
  }

  void build(const std::vector<bool>& side) {
    std::fill(pins_on_side_.begin(), pins_on_side_.end(), 0);
    cut_ = 0.0;
    side_count_ = 0;
    side_ = side;
    for (ht::hypergraph::EdgeId e = 0; e < h_.num_edges(); ++e) {
      std::int32_t c = 0;
      for (ht::hypergraph::VertexId v : h_.pins(e))
        c += side[static_cast<std::size_t>(v)] ? 1 : 0;
      pins_on_side_[static_cast<std::size_t>(e)] = c;
      if (c > 0 && c < h_.edge_size(e)) cut_ += h_.edge_weight(e);
    }
    for (bool b : side) side_count_ += b ? 1 : 0;
  }

  void flip(ht::hypergraph::VertexId v) {
    const bool to_side = !side_[static_cast<std::size_t>(v)];
    for (ht::hypergraph::EdgeId e : h_.incident_edges(v)) {
      const auto idx = static_cast<std::size_t>(e);
      const std::int32_t size = h_.edge_size(e);
      const std::int32_t before = pins_on_side_[idx];
      const std::int32_t after = before + (to_side ? 1 : -1);
      const bool was_cut = before > 0 && before < size;
      const bool is_cut = after > 0 && after < size;
      if (was_cut && !is_cut) cut_ -= h_.edge_weight(e);
      if (!was_cut && is_cut) cut_ += h_.edge_weight(e);
      pins_on_side_[idx] = after;
    }
    side_[static_cast<std::size_t>(v)] = to_side;
    side_count_ += to_side ? 1 : -1;
  }

  /// Cut change that flipping v would cause, without applying it.
  double flip_delta(ht::hypergraph::VertexId v) const {
    const bool to_side = !side_[static_cast<std::size_t>(v)];
    double delta = 0.0;
    for (ht::hypergraph::EdgeId e : h_.incident_edges(v)) {
      const auto idx = static_cast<std::size_t>(e);
      const std::int32_t size = h_.edge_size(e);
      const std::int32_t before = pins_on_side_[idx];
      const std::int32_t after = before + (to_side ? 1 : -1);
      const bool was_cut = before > 0 && before < size;
      const bool is_cut = after > 0 && after < size;
      if (was_cut && !is_cut) delta -= h_.edge_weight(e);
      if (!was_cut && is_cut) delta += h_.edge_weight(e);
    }
    return delta;
  }

  double cut() const { return cut_; }
  /// Pins of hyperedge e currently on side 1.
  std::int32_t pins_on_side(ht::hypergraph::EdgeId e) const {
    return pins_on_side_[static_cast<std::size_t>(e)];
  }
  std::int64_t side_count() const { return side_count_; }
  bool on_side(ht::hypergraph::VertexId v) const {
    return side_[static_cast<std::size_t>(v)];
  }
  const std::vector<bool>& side() const { return side_; }

 private:
  const ht::hypergraph::Hypergraph& h_;
  std::vector<std::int32_t> pins_on_side_;
  std::vector<bool> side_;
  double cut_ = 0.0;
  std::int64_t side_count_ = 0;
};

}  // namespace ht::partition
