// Hypergraph workload generators, including the paper's constructions.
#pragma once

#include <cstdint>

#include "hypergraph/hypergraph.hpp"
#include "util/rng.hpp"

namespace ht::hypergraph {

/// m random r-uniform hyperedges on n vertices (pins distinct, edges may
/// repeat). Unit weights.
Hypergraph random_uniform(VertexId n, EdgeId m, std::int32_t r, ht::Rng& rng);

/// The paper's G(n, p, r): every r-subset present independently with
/// probability p. Realized by sampling m ~ Binomial(C(n,r), p) edges (the
/// standard equivalent sampling for the sparse regime used here); with
/// p = n^{1+alpha-r} this has log-density alpha and expected average degree
/// Theta(n^alpha).
Hypergraph gnpr(VertexId n, double p, std::int32_t r, ht::Rng& rng);

/// G(n, p, r) with an adversarially planted sub-hypergraph: k vertices
/// carrying ceil(k^{1+beta}/r) r-uniform edges inside them (the Dense vs
/// Random planted instance of Conjecture 1). `planted[i]` lists the planted
/// vertex ids; planted edge ids come after the random ones.
struct PlantedInstance {
  Hypergraph hypergraph;
  std::vector<VertexId> planted_vertices;
  EdgeId first_planted_edge = 0;
};
PlantedInstance planted_dense(VertexId n, double p, std::int32_t r,
                              VertexId k, double beta, ht::Rng& rng);

/// Theorem 6 instance: a single hyperedge spanning all n vertices.
Hypergraph single_spanning_edge(VertexId n, Weight w = 1.0);

/// Figure 2 instance: top vertex v (id 0) connected by unit 2-edges to
/// u_1..u_n (ids 1..n), plus one hyperedge of weight sqrt(n) spanning all
/// u_i. If `unweighted`, the heavy hyperedge is replaced by floor(sqrt(n))
/// parallel unit copies (the unweighted variant noted after Theorem 7).
struct Figure2Instance {
  Hypergraph hypergraph;
  VertexId top = 0;
  std::vector<VertexId> u;  // u_1..u_n
};
Figure2Instance figure2(VertexId n, bool unweighted = false);

/// Wraps a graph as a 2-uniform hypergraph (edge weights copied).
Hypergraph from_graph_edges(const std::vector<std::pair<VertexId, VertexId>>&
                                edges,
                            VertexId n);

/// Quasi alpha-uniform MkU instance: constant hyperedge size r, every
/// vertex degree close to n^alpha (as in Lemma 4). Returns the instance
/// only; the MkU parameter k is chosen by the experiment.
Hypergraph quasi_uniform(VertexId n, double alpha, std::int32_t r,
                         ht::Rng& rng);

/// Planted-bisection hypergraph: two halves, `edges_per_side` r-uniform
/// edges inside each half, `cross_edges` r-uniform edges straddling the cut
/// (at least one pin on each side). OPT <= cross_edges by construction.
Hypergraph planted_bisection(VertexId half, std::int32_t r,
                             EdgeId edges_per_side, EdgeId cross_edges,
                             ht::Rng& rng);

/// Ring of `clusters` blocks of `size` >= 3 vertices (the benches' scaling
/// family): per block one hyperedge over all members and a lattice of
/// 3-pin edges over consecutive members, and two 2-pin edges joining the
/// block's first two vertices to the next block's. Deterministic, unit
/// weights, connected; every block-border cut of the ring costs 4.
Hypergraph ring_of_clusters(std::int32_t clusters, VertexId size);

/// Planted k-community instance: `parts` groups of `per` vertices,
/// `edges_per_part` r-uniform edges inside each group, `cross_edges`
/// spanning two random groups. The planted partition has connectivity
/// cost <= cross_edges.
Hypergraph planted_parts(std::int32_t parts, VertexId per, std::int32_t r,
                         EdgeId edges_per_part, EdgeId cross_edges,
                         ht::Rng& rng);

/// VLSI-netlist-like instance: mostly small nets (2–4 pins, geometric
/// distribution), plus a few high-fanout nets (clock/reset-like) spanning a
/// constant fraction of vertices. Models the hypergraph partitioning
/// workloads from the paper's introduction.
Hypergraph netlist_like(VertexId n, EdgeId nets, std::int32_t high_fanout_nets,
                        ht::Rng& rng);

/// Sparse-matrix row-net model: n "columns" (vertices), `rows` hyperedges,
/// each containing the columns with nonzeros in that row (band + random
/// fill). Models parallel SpMV load balancing.
Hypergraph spmv_row_net(VertexId n, EdgeId rows, std::int32_t band,
                        double fill_p, ht::Rng& rng);

}  // namespace ht::hypergraph
