// Equivalence of the zero-rebuild flow engine and subgraph views with the
// build-per-call / copy-per-level paths they replaced.
//
// Two layers of evidence:
//  * Direct A/B: every min-cut primitive is run with the engine cache on
//    (reset-and-reuse) and off (FlowReuseScope — fresh build per call, the
//    pre-refactor behaviour) and must agree exactly, bit for bit.
//  * Golden hashes: tree signatures / Gomory–Hu trees / Theorem 1 outputs
//    captured from the pre-refactor seed build. The refactor must not move
//    a single byte of output.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/bisection.hpp"
#include "cuttree/decomposition_tree.hpp"
#include "cuttree/tree.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/dinic.hpp"
#include "flow/flow_network.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "graph/subset_view.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/subset_view.hpp"
#include "obs/metrics.hpp"
#include "util/perf_counters.hpp"
#include "util/piece_allocator.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"
#include "util/work_arena.hpp"

namespace {

using ht::flow::FlowNetwork;
using ht::flow::FlowReuseScope;

// FNV-1a 64-bit over a string, printed as hex — the same digest the
// pre-refactor goldens below were captured with.
std::string hash_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string gomory_hu_string(const std::vector<std::int32_t>& parent,
                             const std::vector<double>& parent_cut) {
  std::string s;
  for (auto p : parent) s += std::to_string(p) + ",";
  for (auto c : parent_cut) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g,", c);
    s += buf;
  }
  return s;
}

std::vector<ht::graph::VertexId> random_terminals(ht::Rng& rng,
                                                  std::int32_t n,
                                                  std::vector<char>& taken) {
  std::vector<ht::graph::VertexId> out;
  const auto want = 1 + static_cast<std::int32_t>(rng.next_below(3));
  for (std::int32_t tries = 0;
       static_cast<std::int32_t>(out.size()) < want && tries < 8 * n;
       ++tries) {
    const auto v =
        static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (taken[static_cast<std::size_t>(v)]) continue;
    taken[static_cast<std::size_t>(v)] = 1;
    out.push_back(v);
  }
  return out;
}

TEST(FlowEngine, EdgeCutReuseMatchesFreshBuild) {
  ht::Rng rng(51);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<std::int32_t>(20 + rng.next_below(30));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_edge_cut(g, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_edge_cut(g, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_edges, fresh.cut_edges);
      EXPECT_EQ(reused.source_side, fresh.source_side);
    }
  }
}

TEST(FlowEngine, VertexCutReuseMatchesFreshBuild) {
  ht::Rng rng(52);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<std::int32_t>(20 + rng.next_below(30));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_vertex_cut(g, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_vertex_cut(g, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_vertices, fresh.cut_vertices);
    }
  }
}

TEST(FlowEngine, HyperedgeCutReuseMatchesFreshBuild) {
  ht::Rng rng(53);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(16 + rng.next_below(20));
    const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      const auto reused = ht::CutEngine().min_hyperedge_cut(h, a, b);
      FlowReuseScope off(false);
      const auto fresh = ht::CutEngine().min_hyperedge_cut(h, a, b);
      EXPECT_EQ(reused.value, fresh.value);
      EXPECT_EQ(reused.cut_edges, fresh.cut_edges);
    }
  }
}

TEST(FlowEngine, RepeatedQueriesAreIdentical) {
  // reset() restores the exact build-time capacities, so asking the same
  // question twice on one engine must answer bit-identically.
  ht::Rng rng(54);
  const auto g = ht::graph::gnp_connected(40, 5.0 / 40, rng);
  const std::vector<ht::graph::VertexId> a{0, 3}, b{11, 17};
  const auto first = ht::CutEngine().min_edge_cut(g, a, b);
  const auto second = ht::CutEngine().min_edge_cut(g, a, b);
  EXPECT_EQ(first.value, second.value);
  EXPECT_EQ(first.cut_edges, second.cut_edges);
  EXPECT_EQ(first.source_side, second.source_side);
}

TEST(FlowEngine, ResetAfterInterruptedSolveMatchesFreshBuild) {
  // An interrupted solve leaves attached terminals, BFS levels and (when
  // it stops after a phase) pushed flow on the cached network; the next
  // queries on that same network must still answer exactly like a fresh
  // build.
  const auto h = ht::hypergraph::ring_of_clusters(12, 6);
  const ht::hypergraph::VertexId last = h.num_vertices() - 1;
  const std::vector<ht::hypergraph::VertexId> a{0, 1, 2, 3, 4, 5},
      b{27, 28, 29};
  auto& paths =
      ht::obs::MetricsRegistry::global().histogram("flow.augmenting_paths");
  auto& counters = ht::PerfCounters::global();
  const std::uint64_t builds_before = counters.flow_builds();

  // Stop latched before the solve: it breaks after its first BFS.
  {
    ht::RunContext ctx;
    ctx.with_deadline_after(std::chrono::nanoseconds(0));
    ht::RunScope scope(ctx);
    (void)scope.state().check();
    EXPECT_FALSE(ht::CutEngine().min_hyperedge_cut(h, a, b).complete);
  }
  // Stop latched by the solve's own poll after its first phase pushed.
  {
    ht::CancelSource cancel;
    cancel.request_cancel();
    ht::RunContext ctx;
    ctx.with_cancel(cancel.token());
    ctx.flow_check_rounds = 2;
    ht::RunScope scope(ctx);
    const std::uint64_t pushed_before = paths.sum();
    EXPECT_FALSE(ht::CutEngine().min_hyperedge_cut(h, a, b).complete);
    EXPECT_GT(paths.sum(), pushed_before);
  }
  // Then completed queries on the same network: the interrupted
  // terminals, the same terminals swapped (flow left behind would now run
  // with the new flow instead of against it), then others.
  using Terminals = std::vector<ht::hypergraph::VertexId>;
  const std::vector<std::pair<Terminals, Terminals>> queries{
      {a, b}, {b, a}, {{last}, {7, 30}}, {{6}, {60}}};
  std::vector<ht::flow::HyperedgeCutResult> reused;
  for (const auto& [s, t] : queries)
    reused.push_back(ht::CutEngine().min_hyperedge_cut(h, s, t));
  EXPECT_EQ(counters.flow_builds() - builds_before, 1u);  // one network

  FlowReuseScope off(false);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto fresh = ht::CutEngine().min_hyperedge_cut(
        h, queries[q].first, queries[q].second);
    EXPECT_TRUE(reused[q].complete) << "query " << q;
    EXPECT_EQ(reused[q].value, fresh.value) << "query " << q;
    EXPECT_EQ(reused[q].cut_edges, fresh.cut_edges) << "query " << q;
  }
}

TEST(FlowEngine, ReuseCountersShowReuse) {
  ht::ThreadPool::reset_global(1);
  ht::Rng rng(55);
  const auto g = ht::graph::gnp_connected(48, 6.0 / 48, rng);
  auto& counters = ht::PerfCounters::global();
  counters.reset();
  const auto tree = ht::CutEngine().gomory_hu(g).tree;
  ht::ThreadPool::reset_global();
  EXPECT_EQ(tree.parent.size(), 48u);
  // Gusfield issues n-1 flows on the same graph: a handful of engine
  // builds (one per participating thread), everything else reuse.
  EXPECT_GT(counters.max_flow_calls(), 0u);
  EXPECT_GT(counters.flow_reuses(), 0u);
  EXPECT_GT(counters.arena_hits(), 0u);
  EXPECT_LT(counters.flow_builds(), counters.max_flow_calls());
  EXPECT_GT(counters.peak_arena_bytes(), 0u);
}

TEST(FlowEngine, ArenaAgreesWithReferenceDinic) {
  // The arena solver against the standalone Dinic<double> on the same
  // instances — larger than the brute-force property tests reach.
  ht::Rng rng(56);
  for (int round = 0; round < 8; ++round) {
    const auto n = static_cast<std::int32_t>(12 + rng.next_below(24));
    const auto g = ht::graph::gnp_connected(n, 5.0 / n, rng);
    FlowNetwork net = FlowNetwork::edge_cut_network(g);
    const auto s =
        static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto t = static_cast<ht::graph::VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (t == s) t = (t + 1) % n;
    net.reset();
    net.attach_source(s);
    net.attach_sink(t);
    const double arena_flow = net.max_flow();
    ht::flow::Dinic<double> ref(n + 2);
    for (const auto& e : g.edges()) ref.add_undirected(e.u, e.v, e.weight);
    ref.add_arc(n, s, ht::flow::kInfiniteCapacity);
    ref.add_arc(t, n + 1, ht::flow::kInfiniteCapacity);
    EXPECT_NEAR(arena_flow, ref.max_flow(n, n + 1), 1e-6);
  }
}

TEST(SubsetView, GraphMaterializeMatchesInducedSubgraph) {
  ht::Rng rng(57);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(15 + rng.next_below(30));
    const auto g = ht::graph::gnp_connected(n, 4.0 / n, rng);
    std::vector<ht::graph::VertexId> subset;
    for (ht::graph::VertexId v = 0; v < n; ++v)
      if (rng.next_below(3) != 0) subset.push_back(v);
    if (subset.empty()) continue;
    const ht::graph::SubsetView view(g, subset);
    const auto a = view.materialize();
    const auto b = ht::graph::induced_subgraph(g, subset);
    ASSERT_EQ(a.old_of_new, b.old_of_new);
    ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (ht::graph::EdgeId e = 0; e < a.graph.num_edges(); ++e) {
      EXPECT_EQ(a.graph.edge(e).u, b.graph.edge(e).u);
      EXPECT_EQ(a.graph.edge(e).v, b.graph.edge(e).v);
      EXPECT_EQ(a.graph.edge(e).weight, b.graph.edge(e).weight);
    }
    for (ht::graph::VertexId v = 0; v < a.graph.num_vertices(); ++v)
      EXPECT_EQ(a.graph.vertex_weight(v), b.graph.vertex_weight(v));
    // Round-trip id maps agree with the copies.
    for (std::size_t i = 0; i < subset.size(); ++i)
      EXPECT_EQ(view.old_of(static_cast<ht::graph::VertexId>(i)), subset[i]);
  }
}

TEST(SubsetView, HypergraphMaterializeMatchesInducedSubhypergraph) {
  ht::Rng rng(58);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(15 + rng.next_below(25));
    const auto h = ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
    std::vector<ht::hypergraph::VertexId> subset;
    for (ht::hypergraph::VertexId v = 0; v < n; ++v)
      if (rng.next_below(3) != 0) subset.push_back(v);
    if (subset.empty()) continue;
    const ht::hypergraph::SubsetView view(h, subset);
    const auto a = view.materialize();
    const auto b = ht::hypergraph::induced_subhypergraph(h, subset);
    ASSERT_EQ(a.old_of_new, b.old_of_new);
    ASSERT_EQ(a.hypergraph.num_vertices(), b.hypergraph.num_vertices());
    ASSERT_EQ(a.hypergraph.num_edges(), b.hypergraph.num_edges());
    for (ht::hypergraph::EdgeId e = 0; e < a.hypergraph.num_edges(); ++e) {
      EXPECT_EQ(a.hypergraph.edge_weight(e), b.hypergraph.edge_weight(e));
      ASSERT_EQ(a.hypergraph.edge_size(e), b.hypergraph.edge_size(e));
      for (std::int32_t i = 0; i < a.hypergraph.edge_size(e); ++i)
        EXPECT_EQ(a.hypergraph.pins(e)[static_cast<std::size_t>(i)],
                  b.hypergraph.pins(e)[static_cast<std::size_t>(i)]);
    }
    for (ht::hypergraph::VertexId v = 0; v < a.hypergraph.num_vertices(); ++v)
      EXPECT_EQ(a.hypergraph.vertex_weight(v),
                b.hypergraph.vertex_weight(v));
  }
}

TEST(SubsetView, LocalOfIsInverseOfOldOf) {
  ht::Rng rng(59);
  const auto g = ht::graph::gnp_connected(30, 4.0 / 30, rng);
  std::vector<ht::graph::VertexId> subset{2, 5, 7, 11, 23, 29};
  const ht::graph::SubsetView view(g, subset);
  for (std::size_t i = 0; i < subset.size(); ++i)
    EXPECT_EQ(view.local_of(subset[i]),
              static_cast<ht::graph::VertexId>(i));
  EXPECT_EQ(view.local_of(0), -1);
  EXPECT_FALSE(view.contains(1));
  EXPECT_TRUE(view.contains(23));
}

// --- goldens captured from the pre-refactor seed build -------------------
// A failure here means the refactor changed an output byte; the arena /
// view paths are required to be observationally identical.

TEST(FlowEngineGolden, DecompositionTreeUnchanged) {
  ht::Rng rng(4242);
  const auto g = ht::graph::gnp_connected(80, 5.0 / 80, rng);
  const auto t = ht::cuttree::build_decomposition_tree_run(g).tree;
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(t)), "9267f129397d94b9");
}

TEST(FlowEngineGolden, VertexCutTreeUnchanged) {
  ht::Rng rng(2024);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  const auto r = ht::cuttree::build_vertex_cut_tree(g);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "794ee03a599a44d6");
  EXPECT_EQ(r.separator_weight, 0.0);
}

TEST(FlowEngineGolden, VertexCutTreeDeepRecursionUnchanged) {
  // threshold_override high enough to force splits all the way down — the
  // path that exercises SubsetView + the vertex-cut flow arena hardest.
  ht::Rng rng(2024);
  const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
  ht::cuttree::VertexCutTreeOptions opt;
  opt.threshold_override = 0.75;
  const auto r = ht::cuttree::build_vertex_cut_tree(g, opt);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "eadb86157db492ca");
  EXPECT_EQ(r.separator_weight, 33.0);
  EXPECT_EQ(r.num_pieces, 22);
}

TEST(FlowEngineGolden, VertexCutTreeGridUnchanged) {
  const auto g = ht::graph::grid(10, 10);
  const auto r = ht::cuttree::build_vertex_cut_tree(g);
  EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
            "d1862126fa304004");
}

TEST(FlowEngineGolden, GomoryHuUnchanged) {
  ht::Rng rng(1313);
  const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
  const auto t = ht::CutEngine().gomory_hu(g).tree;
  EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
            "7d301c7c0431f7f7");
}

TEST(FlowEngineGolden, HypergraphGomoryHuUnchanged) {
  ht::Rng rng(99);
  const auto h = ht::hypergraph::random_uniform(36, 70, 3, rng);
  const auto t = ht::CutEngine().gomory_hu(h).tree;
  EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
            "89aacea13cfa79eb");
}

TEST(FlowEngineGolden, Theorem1BisectionUnchanged) {
  ht::Rng rng(777);
  const auto h = ht::hypergraph::random_uniform(40, 80, 3, rng);
  const auto rep = ht::core::bisect_theorem1(h);
  std::string s;
  for (bool b : rep.solution.side) s += b ? '1' : '0';
  EXPECT_EQ(rep.solution.cut, 37.0);
  EXPECT_EQ(hash_hex(s), "75cceafb461218bb");
}

TEST(FlowEngineGolden, GoldensHoldWithReuseDisabled) {
  // The fresh-build path must produce the same bytes as the arena path.
  FlowReuseScope off(false);
  {
    ht::Rng rng(1313);
    const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
    const auto t = ht::CutEngine().gomory_hu(g).tree;
    EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
              "7d301c7c0431f7f7");
  }
  {
    ht::Rng rng(2024);
    const auto g = ht::graph::gnp_connected(60, 5.0 / 60, rng);
    ht::cuttree::VertexCutTreeOptions opt;
    opt.threshold_override = 0.75;
    const auto r = ht::cuttree::build_vertex_cut_tree(g, opt);
    EXPECT_EQ(hash_hex(ht::cuttree::tree_signature(r.tree)),
              "eadb86157db492ca");
  }
}

TEST(FlowEngineGolden, GoldensHoldAcrossThreadCounts) {
  // Batched speculation must not move a byte: at 1 and 4 threads both
  // Gomory–Hu builders reproduce the pre-refactor hashes.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ht::ThreadPool::reset_global(threads);
    {
      ht::Rng rng(1313);
      const auto g = ht::graph::gnp_connected(60, 6.0 / 60, rng);
      const auto t = ht::CutEngine().gomory_hu(g).tree;
      EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
                "7d301c7c0431f7f7")
          << "threads=" << threads;
    }
    {
      ht::Rng rng(99);
      const auto h = ht::hypergraph::random_uniform(36, 70, 3, rng);
      const auto t = ht::CutEngine().gomory_hu(h).tree;
      EXPECT_EQ(hash_hex(gomory_hu_string(t.parent, t.parent_cut)),
                "89aacea13cfa79eb")
          << "threads=" << threads;
    }
  }
  ht::ThreadPool::reset_global();
}

TEST(FlowEngine, PoolAllocatorMetricsRegister) {
  // The per-query terminal marks come from the thread's PieceAllocator;
  // after a few queries the pool gauge and the reuse counter must both be
  // live.
  ht::Rng rng(65);
  const auto g = ht::graph::gnp_connected(40, 5.0 / 40, rng);
  const ht::CutEngine engine;
  auto& reuse = ht::obs::MetricsRegistry::global().counter("flow.pool_reuse");
  const auto reuse_before = reuse.value();
  for (int q = 0; q < 4; ++q)
    (void)engine.min_edge_cut(g, {0}, {g.num_vertices() - 1});
  EXPECT_GT(ht::WorkArena::local().pieces().bytes_reserved(), 0u);
  EXPECT_GT(reuse.value(), reuse_before);
}

TEST(SubsetView, EmptySubsetsAreValidAndMaterializeEmpty) {
  ht::Rng rng(7);
  const auto g = ht::graph::gnp_connected(12, 0.4, rng);
  {
    const ht::graph::SubsetView view(g, {});
    EXPECT_EQ(view.size(), 0);
    EXPECT_FALSE(view.contains(0));
    EXPECT_DOUBLE_EQ(view.total_vertex_weight(), 0.0);
    const auto sub = view.materialize();
    EXPECT_EQ(sub.graph.num_vertices(), 0);
    EXPECT_TRUE(sub.old_of_new.empty());
  }
  ht::Rng hrng(8);
  const auto h = ht::hypergraph::random_uniform(12, 24, 3, hrng);
  {
    const ht::hypergraph::SubsetView view(h, {});
    EXPECT_EQ(view.size(), 0);
    EXPECT_FALSE(view.contains(0));
    EXPECT_DOUBLE_EQ(view.total_vertex_weight(), 0.0);
    const auto sub = view.materialize();
    EXPECT_EQ(sub.hypergraph.num_vertices(), 0);
    EXPECT_EQ(sub.hypergraph.num_edges(), 0);
  }
}

TEST(SubsetView, SingletonSubsetsKeepTheVertexAndDropAllEdges) {
  ht::Rng rng(9);
  const auto g = ht::graph::gnp_connected(10, 0.5, rng);
  {
    const ht::graph::SubsetView view(g, {4});
    EXPECT_EQ(view.size(), 1);
    EXPECT_EQ(view.old_of(0), 4);
    EXPECT_EQ(view.local_of(4), 0);
    EXPECT_EQ(view.local_of(5), -1);
    EXPECT_DOUBLE_EQ(view.total_vertex_weight(), g.vertex_weight(4));
    const auto sub = view.materialize();
    EXPECT_EQ(sub.graph.num_vertices(), 1);
    EXPECT_EQ(sub.graph.num_edges(), 0);  // no 2-pin edge survives
  }
  ht::Rng hrng(10);
  const auto h = ht::hypergraph::random_uniform(10, 30, 3, hrng);
  {
    const ht::hypergraph::SubsetView view(h, {4});
    EXPECT_EQ(view.size(), 1);
    EXPECT_EQ(view.old_of(0), 4);
    EXPECT_TRUE(view.contains(4));
    EXPECT_FALSE(view.contains(3));
    const auto sub = view.materialize();
    EXPECT_EQ(sub.hypergraph.num_vertices(), 1);
    EXPECT_EQ(sub.hypergraph.num_edges(), 0);  // < 2 surviving pins
  }
}

}  // namespace

