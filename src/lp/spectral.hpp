// Spectral machinery: Fiedler vectors via power iteration.
//
// The min-ratio-cut surrogate (DESIGN.md substitution table) sweeps the
// second eigenvector of the weighted graph Laplacian. We compute it with
// shifted power iteration + deflation against the constant vector — no
// external linear algebra dependency, deterministic given the seed.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ht::lp {

struct FiedlerResult {
  std::vector<double> vector;  // one entry per vertex, unit norm
  double eigenvalue = 0.0;     // corresponding Laplacian eigenvalue estimate
  int iterations = 0;
  /// True when the eigenvalue estimate settled within the tolerance; false
  /// when the iteration cap stopped the run first (the vector is then the
  /// last iterate, still usable as a sweep order but not an eigenvector).
  bool converged = false;
};

/// Approximates the Fiedler vector (eigenvector of the second-smallest
/// Laplacian eigenvalue) of a finalized graph using edge weights.
/// `vertex_mass` optionally weights the orthogonality constraint (pass the
/// vertex weights to bias sweeps toward balanced *weight*, or empty for
/// uniform mass). Every call records its iteration count in the
/// "lp.fiedler.iterations" histogram and, when it hits the cap, adds one to
/// the "lp.fiedler.unconverged" counter.
FiedlerResult fiedler_vector(const ht::graph::Graph& g,
                             const std::vector<double>& vertex_mass,
                             ht::Rng& rng, int max_iterations = 3000,
                             double tolerance = 1e-8);

}  // namespace ht::lp
