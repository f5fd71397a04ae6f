#include "cuttree/decomposition_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "graph/subset_view.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/sparsest_cut.hpp"
#include "util/perf_counters.hpp"
#include "util/wavefront.hpp"
#include "util/work_arena.hpp"

namespace ht::cuttree {

using ht::graph::Graph;

namespace {

/// One child slot of a cluster: either a single-vertex leaf or a nested
/// cluster (index into the cluster record table).
struct ChildEntry {
  bool is_leaf = false;
  VertexId vertex = -1;        // leaf only
  std::int32_t cluster = -1;   // cluster only
  double cut = 0.0;            // delta_G of the child (leaf or cluster)
};

struct ClusterRec {
  std::vector<VertexId> vertices;
  std::vector<ChildEntry> children;  // filled by fold, in split order
};

/// Parallel-computable outcome of splitting one cluster.
struct SplitOutcome {
  struct Part {
    std::vector<VertexId> vertices;
    double cut = 0.0;
  };
  // True when the whole cluster bottoms out into single-vertex leaves
  // (small cluster, edgeless cluster, or no valid cut).
  bool expand_leaves = false;
  std::vector<double> leaf_cuts;  // parallel to the cluster's vertices
  std::vector<Part> parts;        // otherwise: the sparsest-cut split
};

/// Adjacency entries read for cluster wrappers and cut evaluations. Each
/// level of the laminar family reads every edge at most four times (twice
/// for the wrappers, twice for the parts' cuts), so the total stays within
/// 4 m (height + 1) — a full-instance scan per cluster would show as ~n m.
ht::obs::Counter& cut_eval_edges_counter() {
  static ht::obs::Counter& c =
      ht::obs::MetricsRegistry::global().counter("cuttree.cut_eval_edges");
  return c;
}

/// delta_G({v}) from v's adjacency. finalize() lists a vertex's edges in
/// ascending edge id, so this sums in Graph::cut_weight's order and the
/// value is bit-identical to it.
double singleton_cut(const Graph& g, VertexId v, std::uint64_t& reads) {
  double sum = 0.0;
  for (const ht::graph::AdjEntry& a : g.neighbors(v))
    sum += g.edge(a.edge).weight;
  reads += static_cast<std::uint64_t>(g.degree(v));
  return sum;
}

/// delta_G(part) from the part's crossing edges, where `label` is the
/// part's value in `side` and every other vertex maps elsewhere. The edges
/// are summed in ascending id, Graph::cut_weight's order, so the value is
/// bit-identical to it. `crossing` is caller-owned scratch.
double set_cut(const Graph& g, const std::vector<VertexId>& part,
               const ht::WorkArena::Remap& side, std::int32_t label,
               std::vector<ht::graph::EdgeId>& crossing,
               std::uint64_t& reads) {
  crossing.clear();
  for (VertexId v : part) {
    for (const ht::graph::AdjEntry& a : g.neighbors(v))
      if (side.get(a.to) != label) crossing.push_back(a.edge);
    reads += static_cast<std::uint64_t>(g.degree(v));
  }
  std::sort(crossing.begin(), crossing.end());
  double sum = 0.0;
  for (ht::graph::EdgeId e : crossing) sum += g.edge(e).weight;
  return sum;
}

}  // namespace

DecompositionTreeResult build_decomposition_tree_run(
    const Graph& g, const DecompositionOptions& options) {
  HT_CHECK(g.finalized());
  const VertexId n = g.num_vertices();
  HT_CHECK(n >= 1);
  ht::obs::TraceSpan trace("decomposition_tree");
  trace.arg("n", n);
  ht::PhaseTimer phase("decomposition_tree.build");

  // Stage 1 — parallel: grow the laminar cluster family over the pool.
  // Splits (spectral sweep + cut evaluations) run concurrently per
  // cluster; each cluster's RNG stream derives from its wavefront index,
  // so the family is identical for every thread count.
  std::vector<ClusterRec> recs(1);
  recs[0].vertices.resize(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v)
    recs[0].vertices[static_cast<std::size_t>(v)] = v;

  const auto map = [&](const std::int32_t& rec_index,
                       ht::Rng& rng) -> SplitOutcome {
    // Safe concurrent read: fold only appends records between waves.
    const std::vector<VertexId>& vertices =
        recs[static_cast<std::size_t>(rec_index)].vertices;
    ht::obs::TraceSpan span("dtree.split_oracle");
    span.arg("cluster_size", vertices.size());
    SplitOutcome result;
    std::uint64_t reads = 0;
    if (ht::run_stopped()) {
      // The run already latched a stop: the fold loop is guaranteed to
      // drain this cluster (the latch never clears), so its oracle work
      // would be discarded — return an empty placeholder instead.
      result.expand_leaves = true;
      return result;
    }
    if (static_cast<std::int32_t>(vertices.size()) <=
        std::max(options.leaf_cluster_size, 1)) {
      result.expand_leaves = true;
      result.leaf_cuts.reserve(vertices.size());
      for (VertexId v : vertices)
        result.leaf_cuts.push_back(singleton_cut(g, v, reads));
      cut_eval_edges_counter().add(reads);
      span.arg("expand_leaves", 1);
      return result;
    }

    // Split the cluster with the sparsest cut of its induced subgraph,
    // wrapped 2-uniform so the hypergraph oracle applies. The wrapper is
    // built from the cluster's own adjacency in O(vol(cluster)): inside
    // edges are taken once (from the smaller endpoint) and added in
    // ascending edge id, the order a scan of g.edges() would yield.
    const ht::graph::SubsetView view(g, vertices);
    std::vector<ht::graph::EdgeId> edges;
    for (VertexId v : vertices) {
      for (const ht::graph::AdjEntry& a : g.neighbors(v))
        if (v < a.to && view.contains(a.to)) edges.push_back(a.edge);
      reads += static_cast<std::uint64_t>(g.degree(v));
    }
    std::sort(edges.begin(), edges.end());
    ht::hypergraph::Hypergraph wrapper(view.size());
    for (ht::graph::EdgeId id : edges) {
      const ht::graph::Edge& e = g.edge(id);
      wrapper.add_edge({view.local_of(e.u), view.local_of(e.v)}, e.weight);
    }
    wrapper.finalize();

    std::vector<std::vector<VertexId>> parts;
    if (wrapper.num_edges() == 0) {
      // Disconnected dust: every vertex its own part.
      for (VertexId v : vertices) parts.push_back({v});
    } else {
      ht::partition::SparsestCutResult cut;
      if (static_cast<std::int32_t>(vertices.size()) <=
          options.exact_limit) {
        cut = ht::partition::sparsest_hyperedge_cut_exact(wrapper);
      } else {
        cut = ht::partition::sparsest_hyperedge_cut(wrapper, rng);
      }
      if (!cut.valid) {
        // No split available (complete-graph-like): all vertices leaves.
        for (VertexId v : vertices) parts.push_back({v});
      } else {
        std::vector<bool> in_small(vertices.size(), false);
        for (VertexId local : cut.smaller_side)
          in_small[static_cast<std::size_t>(local)] = true;
        std::vector<VertexId> small, large;
        for (std::size_t i = 0; i < vertices.size(); ++i)
          (in_small[i] ? small : large)
              .push_back(view.old_of(static_cast<VertexId>(i)));
        parts.push_back(std::move(small));
        parts.push_back(std::move(large));
      }
    }
    // Label every vertex with its part (the oracle may have reused this
    // thread's remap, so the view's is not trusted past this point).
    ht::WorkArena::Remap side = ht::WorkArena::local().begin_remap(n);
    for (std::size_t p = 0; p < parts.size(); ++p)
      for (VertexId v : parts[p]) side.set(v, static_cast<std::int32_t>(p));
    for (std::size_t p = 0; p < parts.size(); ++p) {
      auto& part = parts[p];
      if (part.empty()) continue;
      SplitOutcome::Part out_part;
      out_part.cut = part.size() == 1
                         ? singleton_cut(g, part[0], reads)
                         : set_cut(g, part, side, static_cast<std::int32_t>(p),
                                   edges, reads);
      out_part.vertices = std::move(part);
      result.parts.push_back(std::move(out_part));
    }
    cut_eval_edges_counter().add(reads);
    span.arg("expand_leaves", 0);
    span.arg("parts", result.parts.size());
    return result;
  };
  const auto fold = [&](std::int32_t&& rec_index, SplitOutcome&& result,
                        const auto& emit) {
    // Build the child list locally: appending child records below may
    // reallocate `recs`, so no reference into it can be held across the
    // loop.
    std::vector<ChildEntry> children;
    if (result.expand_leaves) {
      const auto& vertices =
          recs[static_cast<std::size_t>(rec_index)].vertices;
      // A placeholder from a post-stop map can never reach this fold (the
      // wavefront drains once a stop latches), so the cut list is full.
      HT_DCHECK(result.leaf_cuts.size() == vertices.size());
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        ChildEntry leaf;
        leaf.is_leaf = true;
        leaf.vertex = vertices[i];
        leaf.cut = result.leaf_cuts[i];
        children.push_back(leaf);
      }
    } else {
      for (auto& part : result.parts) {
        ChildEntry entry;
        entry.cut = part.cut;
        if (part.vertices.size() == 1) {
          entry.is_leaf = true;
          entry.vertex = part.vertices[0];
        } else {
          entry.cluster = static_cast<std::int32_t>(recs.size());
          ClusterRec child;
          child.vertices = std::move(part.vertices);
          recs.push_back(std::move(child));
          emit(std::int32_t(entry.cluster));
        }
        children.push_back(entry);
      }
    }
    recs[static_cast<std::size_t>(rec_index)].children = std::move(children);
  };
  // Early stop: a cluster still queued expands into a star of leaves with
  // exact singleton cuts — the union-bound domination argument is
  // unaffected, the tree is just coarser below that cluster.
  const auto drain = [&](std::int32_t&& rec_index) {
    ClusterRec& rec = recs[static_cast<std::size_t>(rec_index)];
    std::vector<ChildEntry> children;
    children.reserve(rec.vertices.size());
    std::uint64_t reads = 0;
    for (VertexId v : rec.vertices) {
      ChildEntry leaf;
      leaf.is_leaf = true;
      leaf.vertex = v;
      leaf.cut = singleton_cut(g, v, reads);
      children.push_back(leaf);
    }
    cut_eval_edges_counter().add(reads);
    rec.children = std::move(children);
  };
  const ht::Status status =
      ht::parallel_wavefront<std::int32_t, SplitOutcome>(
          {0}, options.seed, map, fold, drain);

  // Stage 2 — serial: emit the Tree in DFS preorder over the cluster
  // family, matching the recursive construction's node numbering.
  Tree tree;
  tree.reserve_vertices(n);
  const NodeId root = tree.add_node(-1, kInfiniteNodeWeight);
  const std::function<void(std::int32_t, NodeId)> assemble =
      [&](std::int32_t rec_index, NodeId node) {
        for (const ChildEntry& child :
             recs[static_cast<std::size_t>(rec_index)].children) {
          if (child.is_leaf) {
            const NodeId leaf = tree.add_node(node, 1.0, child.cut);
            tree.set_vertex_node(child.vertex, leaf);
          } else {
            const NodeId cluster =
                tree.add_node(node, kInfiniteNodeWeight, child.cut);
            assemble(child.cluster, cluster);
          }
        }
      };
  assemble(0, root);
  tree.validate();
  DecompositionTreeResult out;
  out.tree = std::move(tree);
  out.status = status;
  return out;
}

}  // namespace ht::cuttree
