#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cuttree/decomposition_tree.hpp"
#include "cuttree/tree_edge_partition.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "partition/exact.hpp"
#include "partition/graph_bisection.hpp"
#include "partition/unbalanced_kcut.hpp"
#include "reduction/clique_expansion.hpp"
#include "util/rng.hpp"

namespace {

using ht::cuttree::Tree;
using ht::graph::Graph;
using ht::graph::VertexId;
using ht::hypergraph::Hypergraph;

// ---------- decomposition trees ----------

TEST(DecompositionTree, EmbedsAllVerticesAsLeaves) {
  const Graph g = ht::graph::grid(4, 4);
  const Tree t = ht::cuttree::build_decomposition_tree_run(g).tree;
  for (VertexId v = 0; v < 16; ++v) {
    const auto node = t.node_of_vertex(v);
    ASSERT_NE(node, -1);
    EXPECT_TRUE(t.children(node).empty());  // vertices are leaves
  }
}

TEST(DecompositionTree, LeafEdgeWeightsAreDegreeCuts) {
  const Graph g = ht::graph::path(5);
  const Tree t = ht::cuttree::build_decomposition_tree_run(g).tree;
  // Leaf above vertex v carries delta_G({v}) = weighted degree.
  g.finalized();
  for (VertexId v = 0; v < 5; ++v) {
    const auto node = t.node_of_vertex(v);
    std::vector<bool> single(5, false);
    single[static_cast<std::size_t>(v)] = true;
    EXPECT_DOUBLE_EQ(t.edge_weight(node), g.cut_weight(single));
  }
}

TEST(DecompositionTree, CutEvaluationReadsFollowClusterVolume) {
  // Wrappers and cluster cuts are computed from each cluster's own
  // adjacency: every level of the laminar family reads each edge at most
  // four times, so the reads stay within 4 m (height + 1). Scanning the
  // whole instance per cluster would read ~n m instead.
  const Hypergraph h = ht::hypergraph::ring_of_clusters(60, 10);
  Graph g = ht::reduction::clique_expansion(h);
  if (!g.finalized()) g.finalize();
  auto& reads =
      ht::obs::MetricsRegistry::global().counter("cuttree.cut_eval_edges");
  const std::uint64_t before = reads.value();
  const Tree t = ht::cuttree::build_decomposition_tree_run(g).tree;
  const std::uint64_t used = reads.value() - before;

  std::vector<std::int32_t> depth(static_cast<std::size_t>(t.num_nodes()), 0);
  std::int32_t height = 0;
  for (ht::cuttree::NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.parent(v) == -1) continue;
    ASSERT_LT(t.parent(v), v);  // parents are numbered before children
    depth[static_cast<std::size_t>(v)] =
        depth[static_cast<std::size_t>(t.parent(v))] + 1;
    height = std::max(height, depth[static_cast<std::size_t>(v)]);
  }
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, 4 * m * static_cast<std::uint64_t>(height + 1))
      << "height " << height << ", m " << m;

  // The cluster cuts are summed in Graph::cut_weight's edge order, so they
  // are bit-identical to it, not merely close.
  std::vector<std::vector<bool>> below(
      static_cast<std::size_t>(t.num_nodes()),
      std::vector<bool>(static_cast<std::size_t>(g.num_vertices()), false));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (auto node = t.node_of_vertex(v); node != -1; node = t.parent(node))
      below[static_cast<std::size_t>(node)][static_cast<std::size_t>(v)] =
          true;
  }
  for (ht::cuttree::NodeId v = 0; v < t.num_nodes(); ++v) {
    if (t.parent(v) == -1) continue;
    const auto& side = below[static_cast<std::size_t>(v)];
    EXPECT_EQ(t.edge_weight(v), g.cut_weight(side)) << "node " << v;
  }
}

class DecompositionDomination
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecompositionDomination, TreeEdgeCutDominatesGraphCut) {
  ht::Rng rng(GetParam());
  const Graph g = ht::graph::gnp_connected(14, 0.3, rng);
  ht::cuttree::DecompositionOptions options;
  options.seed = GetParam() * 3 + 1;
  const Tree t = ht::cuttree::build_decomposition_tree_run(g, options).tree;
  for (int trial = 0; trial < 10; ++trial) {
    auto pick = rng.sample_without_replacement(14, 4);
    const std::vector<VertexId> a{pick[0], pick[1]}, b{pick[2], pick[3]};
    const double dg = ht::CutEngine().min_edge_cut(g, a, b).value;
    const double dt = ht::cuttree::tree_edge_cut_dp(t, a, b);
    EXPECT_GE(dt, dg - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionDomination,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- tree edge partition DP ----------

TEST(TreeEdgePartition, PathTreeBisectionCutsOnce) {
  // Chain of clusters: best bisection of a path decomposition cuts one
  // tree edge (the middle).
  Tree t;
  t.reserve_vertices(4);
  const auto root = t.add_node(-1, 1.0);
  const auto left = t.add_node(root, 1.0, 3.0);
  const auto right = t.add_node(root, 1.0, 3.0);
  t.set_vertex_node(0, t.add_node(left, 1.0, 10.0));
  t.set_vertex_node(1, t.add_node(left, 1.0, 10.0));
  t.set_vertex_node(2, t.add_node(right, 1.0, 10.0));
  t.set_vertex_node(3, t.add_node(right, 1.0, 10.0));
  const auto dp = ht::cuttree::balanced_tree_edge_bisection(t, {0, 1, 2, 3});
  ASSERT_TRUE(dp.valid);
  // Sides = the two clusters; cut = edge(left)+edge(right)? No: root can
  // share a side with one cluster; only one 3-weight edge is cut.
  EXPECT_DOUBLE_EQ(dp.tree_cut, 3.0);
  EXPECT_EQ(dp.side[0], dp.side[1]);
  EXPECT_EQ(dp.side[2], dp.side[3]);
  EXPECT_NE(dp.side[0], dp.side[2]);
}

TEST(TreeEdgePartition, TargetKExtractsCheapSubtree) {
  Tree t;
  t.reserve_vertices(4);
  const auto root = t.add_node(-1, 1.0);
  const auto cheap = t.add_node(root, 1.0, 1.0);
  t.set_vertex_node(0, t.add_node(cheap, 1.0, 100.0));
  t.set_vertex_node(1, t.add_node(cheap, 1.0, 100.0));
  t.set_vertex_node(2, t.add_node(root, 1.0, 5.0));
  t.set_vertex_node(3, t.add_node(root, 1.0, 7.0));
  const auto dp = ht::cuttree::tree_edge_partition(t, {0, 1, 2, 3}, 2);
  ASSERT_TRUE(dp.valid);
  // Best pair on side 1: the cheap subtree {0,1} for cost 1.
  EXPECT_DOUBLE_EQ(dp.tree_cut, 1.0);
  EXPECT_TRUE(dp.side[0]);
  EXPECT_TRUE(dp.side[1]);
}

TEST(TreeEdgePartition, ZeroAndFullTargetsAreFree) {
  Tree t;
  t.reserve_vertices(2);
  const auto root = t.add_node(-1, 1.0);
  t.set_vertex_node(0, t.add_node(root, 1.0, 4.0));
  t.set_vertex_node(1, t.add_node(root, 1.0, 6.0));
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_edge_partition(t, {0, 1}, 0).tree_cut,
                   0.0);
  EXPECT_DOUBLE_EQ(ht::cuttree::tree_edge_partition(t, {0, 1}, 2).tree_cut,
                   0.0);
}

// ---------- tree-based graph bisection ----------

TEST(GraphBisectionTreeBased, ValidAndNearExact) {
  ht::Rng rng(5);
  double worst = 1.0;
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = ht::graph::gnp_connected(12, 0.3, rng);
    const auto exact = ht::partition::exact_graph_bisection(g);
    ht::Rng prng(static_cast<std::uint64_t>(trial));
    const auto sol = ht::partition::graph_bisection_tree_based(g, prng);
    ASSERT_TRUE(sol.valid);
    EXPECT_GE(sol.cut, exact.cut - 1e-9);
    if (exact.cut > 0) worst = std::max(worst, sol.cut / exact.cut);
  }
  EXPECT_LE(worst, 2.5);
}

TEST(GraphBisectionTreeBased, RecoversPlantedBisection) {
  ht::Rng rng(6);
  const Graph g = ht::graph::planted_bisection(12, 0.5, 2, rng);
  ht::Rng prng(7);
  const auto sol = ht::partition::graph_bisection_tree_based(g, prng);
  ASSERT_TRUE(sol.valid);
  EXPECT_LE(sol.cut, 2.0 + 1e-9);
}

TEST(GraphBisectionTreeBased, NoPolishStillDominatedByTree) {
  ht::Rng rng(8);
  const Graph g = ht::graph::grid(4, 4);
  ht::Rng prng(9);
  const auto sol =
      ht::partition::graph_bisection_tree_based(g, prng, /*fm_polish=*/false);
  ASSERT_TRUE(sol.valid);
  EXPECT_LE(sol.cut, 8.0);  // a 4x4 grid bisects with cut 4; allow slack
}

TEST(KCutGraphTreeBased, MatchesExactOnSmall) {
  ht::Rng rng(10);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = ht::graph::gnp_connected(12, 0.3, rng);
    ht::hypergraph::Hypergraph wrapper(g.num_vertices());
    for (const auto& e : g.edges()) wrapper.add_edge({e.u, e.v}, e.weight);
    wrapper.finalize();
    for (std::int32_t k : {2, 4}) {
      const auto exact = ht::partition::unbalanced_kcut_exact(wrapper, k);
      ht::Rng prng(static_cast<std::uint64_t>(trial * 10 + k));
      const auto tree_cut =
          ht::partition::unbalanced_kcut_graph_tree_based(g, k, prng);
      ASSERT_TRUE(tree_cut.valid);
      EXPECT_EQ(static_cast<std::int32_t>(tree_cut.set.size()), k);
      EXPECT_GE(tree_cut.cut, exact.cut - 1e-9);
      EXPECT_LE(tree_cut.cut, 3.0 * exact.cut + 4.0);
    }
  }
}

// ---------- hypergraph Gomory–Hu ----------

class HypergraphGomoryHuProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HypergraphGomoryHuProperty, AllPairsMatchDirectCuts) {
  ht::Rng rng(GetParam() * 7 + 1);
  const Hypergraph h = ht::hypergraph::random_uniform(10, 18, 3, rng);
  if (!ht::hypergraph::is_connected(h)) GTEST_SKIP();
  const auto tree = ht::CutEngine().gomory_hu(h).tree;
  for (VertexId s = 0; s < 10; ++s) {
    for (VertexId t = s + 1; t < 10; ++t) {
      const double direct = ht::CutEngine().min_hyperedge_cut(h, {s}, {t}).value;
      EXPECT_NEAR(tree.min_cut(s, t), direct, 1e-9)
          << "pair " << s << "," << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphGomoryHuProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(HypergraphGomoryHu, SingleSpanningEdgeStar) {
  // With one spanning hyperedge every s-t cut is 1; the tree must report 1
  // everywhere.
  const Hypergraph h = ht::hypergraph::single_spanning_edge(8, 2.0);
  const auto tree = ht::CutEngine().gomory_hu(h).tree;
  for (VertexId s = 0; s < 8; ++s)
    for (VertexId t = s + 1; t < 8; ++t)
      EXPECT_DOUBLE_EQ(tree.min_cut(s, t), 2.0);
}

TEST(HypergraphGomoryHu, WeightedFigure2Values) {
  const auto fig = ht::hypergraph::figure2(9);
  const auto tree = ht::CutEngine().gomory_hu(fig.hypergraph).tree;
  // top-u_i: cutting u_0's star edge alone does NOT separate (u_0 reaches
  // top through the heavy hyperedge and another star edge); the optimum is
  // star edge + heavy edge = 1 + 3 = 4.
  EXPECT_DOUBLE_EQ(tree.min_cut(fig.top, fig.u[0]), 4.0);
  // u_i-u_j: star edge of one + heavy edge = 4 (validated in test_flow).
  EXPECT_DOUBLE_EQ(tree.min_cut(fig.u[0], fig.u[1]), 4.0);
}

}  // namespace
