// Fiduccia–Mattheyses bisection refinement for hypergraphs.
//
// This is the practitioner baseline the paper's novelty discussion points
// at (heuristic partitioners), and the refinement engine reused by the
// Theorem 1 / Corollary 3 polish, the spectral graph-bisection heuristic,
// the multilevel partitioner and k-way recursive bisection. Exact balance
// (|V|/2 per side) with the usual one-vertex transient slack inside a
// pass. Each move takes the unlocked vertex of largest gain, ties to the
// smallest vertex id, from a lazy max-heap per side; pin counts and gains
// come from CutTracker, so a pass costs O((n + pins) log n).
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"

namespace ht::partition {

struct BisectionSolution {
  std::vector<bool> side;  // true = side 1
  double cut = 0.0;
  bool valid = false;
};

/// One FM refinement run from the given balanced starting partition.
/// Returns a balanced partition with cut <= the starting cut.
BisectionSolution fm_refine(const ht::hypergraph::Hypergraph& h,
                            std::vector<bool> start, int max_passes = 16);

/// Multi-start FM: `starts` (>= 1) random balanced partitions, each
/// refined; best kept. Requires an even number of vertices.
BisectionSolution fm_bisection(const ht::hypergraph::Hypergraph& h,
                               ht::Rng& rng, int starts = 8,
                               int max_passes = 16);

/// Checks balance and recomputes the cut of a solution.
void validate_bisection(const ht::hypergraph::Hypergraph& h,
                        const BisectionSolution& s);

}  // namespace ht::partition
