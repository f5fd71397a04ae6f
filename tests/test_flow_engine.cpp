// Equivalence of the reset-and-reuse flow network with the build-per-call
// path it replaced.
//
// Two layers of evidence:
//  * Direct A/B on FlowNetwork, for all three expansions: one network
//    driven through many queries (reset / attach_* / max_flow /
//    source_side, as a Gomory–Hu build drives the network it owns) must
//    answer every query bit for bit like a fresh network built for it.
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
#include "hypergraph/generators.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::flow::FlowNetwork;

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

/// Everything one query leaves observable on a network.
struct Solved {
  double flow = 0.0;
  bool complete = true;
  std::uint64_t augmenting_paths = 0;
  std::vector<char> source_side;
  std::vector<ht::flow::NodeId> reached;
};

/// One query on `net`, driven directly: restore, attach, solve, read.
template <typename VertexT>
Solved solve_on(FlowNetwork& net, const std::vector<VertexT>& a,
                const std::vector<VertexT>& b) {
  net.reset();
  for (VertexT v : a) net.attach_source(v);
  for (VertexT v : b) net.attach_sink(v);
  Solved out;
  out.flow = net.max_flow();
  out.complete = net.last_flow_complete();
  out.augmenting_paths = net.last_augmenting_paths();
  out.source_side = net.source_side();
  out.reached = net.reached();
  // reached() lists exactly the marked nodes, each once.
  std::vector<char> listed(out.source_side.size(), 0);
  for (const auto v : out.reached) {
    EXPECT_TRUE(out.source_side[static_cast<std::size_t>(v)]);
    EXPECT_FALSE(listed[static_cast<std::size_t>(v)]);
    listed[static_cast<std::size_t>(v)] = 1;
  }
  EXPECT_EQ(listed, out.source_side);
  return out;
}

void expect_same(const Solved& reused, const Solved& fresh,
                 const std::string& what) {
  EXPECT_TRUE(reused.complete) << what;
  EXPECT_EQ(reused.flow, fresh.flow) << what;
  EXPECT_EQ(reused.augmenting_paths, fresh.augmenting_paths) << what;
  EXPECT_EQ(reused.source_side, fresh.source_side) << what;
  EXPECT_EQ(reused.reached, fresh.reached) << what;
}

/// Random instances from `make(rng, n)` with random terminal sets: every
/// query on the instance's one reused network must match a network built
/// fresh for that query.
template <typename Make, typename Build>
void expect_reuse_matches_fresh(std::uint64_t seed, int rounds, Make&& make,
                                Build&& build) {
  ht::Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const auto n = static_cast<std::int32_t>(20 + rng.next_below(30));
    const auto instance = make(rng, n);
    FlowNetwork reused = build(instance);
    for (int q = 0; q < 6; ++q) {
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      const auto a = random_terminals(rng, n, taken);
      const auto b = random_terminals(rng, n, taken);
      if (a.empty() || b.empty()) continue;
      FlowNetwork fresh = build(instance);
      expect_same(solve_on(reused, a, b), solve_on(fresh, a, b),
                  "round " + std::to_string(round) + " query " +
                      std::to_string(q));
    }
  }
}

ht::graph::Graph random_graph(ht::Rng& rng, std::int32_t n) {
  return ht::graph::gnp_connected(n, 4.0 / n, rng);
}

ht::hypergraph::Hypergraph random_hypergraph(ht::Rng& rng, std::int32_t n) {
  return ht::hypergraph::random_uniform(n, 2 * n, 3, rng);
}

TEST(FlowEngine, EdgeCutReuseMatchesFreshBuild) {
  expect_reuse_matches_fresh(51, 12, random_graph,
                             FlowNetwork::edge_cut_network);
}

TEST(FlowEngine, VertexCutReuseMatchesFreshBuild) {
  expect_reuse_matches_fresh(52, 12, random_graph,
                             FlowNetwork::vertex_cut_network);
}

TEST(FlowEngine, HyperedgeCutReuseMatchesFreshBuild) {
  expect_reuse_matches_fresh(53, 10, random_hypergraph,
                             FlowNetwork::hyperedge_cut_network);
}

/// A 12-cycle: terminals {0, 1} and {5, 6} are joined by a 4-edge and a
/// 6-edge path, so every expansion needs two Dinic phases.
ht::graph::Graph twelve_cycle() {
  ht::graph::Graph g(12);
  for (ht::graph::VertexId v = 0; v < 12; ++v) g.add_edge(v, (v + 1) % 12);
  g.finalize();
  return g;
}

TEST(FlowEngine, RepeatedQueriesAreIdentical) {
  // reset() restores the exact build-time capacities, so asking the same
  // question twice on one network, with another question in between, must
  // answer bit-identically, and like a fresh network.
  using Terminals = std::vector<std::int32_t>;
  const auto check = [](FlowNetwork reused, FlowNetwork fresh,
                        const Terminals& a, const Terminals& b,
                        const Terminals& c, const Terminals& d,
                        const std::string& what) {
    const Solved want = solve_on(fresh, a, b);
    expect_same(solve_on(reused, a, b), want, what + " first");
    (void)solve_on(reused, c, d);
    expect_same(solve_on(reused, a, b), want, what + " second");
  };
  ht::Rng rng(54);
  const auto g = ht::graph::gnp_connected(40, 5.0 / 40, rng);
  check(FlowNetwork::edge_cut_network(g), FlowNetwork::edge_cut_network(g),
        {0, 3}, {11, 17}, {17}, {0, 5}, "edge");
  check(FlowNetwork::vertex_cut_network(g),
        FlowNetwork::vertex_cut_network(g), {0, 3}, {11, 17}, {17}, {0, 5},
        "vertex");
  const auto h = ht::hypergraph::ring_of_clusters(12, 6);
  check(FlowNetwork::hyperedge_cut_network(h),
        FlowNetwork::hyperedge_cut_network(h), {0, 1, 2}, {27, 28, 29},
        {30}, {5}, "hyperedge");
}

/// Interrupts two solves on one network — a stop latched before the
/// solve (it breaks after its first BFS), then a cancel the solve's own
/// poll latches after its first phase pushed — and then answers
/// completed queries on that same network: the interrupted terminals, the
/// same terminals swapped (flow left behind would now run with the new
/// flow instead of against it), then others. Each must match a fresh
/// network.
template <typename Instance, typename Build>
void expect_reset_heals_interrupts(
    const Instance& instance, Build&& build,
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b,
    const std::vector<std::int32_t>& c, const std::vector<std::int32_t>& d,
    const std::string& what) {
  FlowNetwork net = build(instance);
  {
    ht::RunContext ctx;
    ctx.with_deadline_after(std::chrono::nanoseconds(0));
    ht::RunScope scope(ctx);
    (void)scope.state().check();
    EXPECT_FALSE(solve_on(net, a, b).complete) << what;
  }
  {
    ht::CancelSource cancel;
    cancel.request_cancel();
    ht::RunContext ctx;
    ctx.with_cancel(cancel.token());
    ctx.flow_check_rounds = 2;
    ht::RunScope scope(ctx);
    const Solved stopped = solve_on(net, a, b);
    EXPECT_FALSE(stopped.complete) << what;
    EXPECT_GT(stopped.augmenting_paths, 0u) << what;
  }
  using Terminals = std::vector<std::int32_t>;
  const std::vector<std::pair<Terminals, Terminals>> queries{
      {a, b}, {b, a}, {c, d}, {d, c}};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    FlowNetwork fresh = build(instance);
    expect_same(solve_on(net, queries[q].first, queries[q].second),
                solve_on(fresh, queries[q].first, queries[q].second),
                what + " query " + std::to_string(q));
  }
}

TEST(FlowEngine, ResetAfterInterruptedSolveMatchesFreshBuild) {
  // An interrupted solve leaves attached terminals, BFS levels and (when
  // it stops after a phase) pushed flow on the network; the next queries
  // on that same network must still answer exactly like a fresh build.
  const auto cycle = twelve_cycle();
  expect_reset_heals_interrupts(cycle, FlowNetwork::edge_cut_network, {0, 1},
                                {5, 6}, {3}, {8, 10}, "edge");
  expect_reset_heals_interrupts(cycle, FlowNetwork::vertex_cut_network,
                                {0, 1}, {5, 6}, {3}, {8, 10}, "vertex");
  const auto h = ht::hypergraph::ring_of_clusters(12, 6);
  const std::int32_t last = h.num_vertices() - 1;
  expect_reset_heals_interrupts(h, FlowNetwork::hyperedge_cut_network,
                                {0, 1, 2, 3, 4, 5}, {27, 28, 29}, {last},
                                {7, 30}, "hyperedge");
}

TEST(FlowEngine, ReuseCountersShowReuse) {
  // A graph Gomory–Hu build answers its n-1 flows on the one network it
  // owns, at any pool size.
  ht::Rng rng(55);
  const auto g = ht::graph::gnp_connected(48, 6.0 / 48, rng);
  auto& counters = ht::PerfCounters::global();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ht::ThreadPool::reset_global(threads);
    const std::uint64_t flows_before = counters.max_flow_calls();
    const std::uint64_t builds_before = counters.flow_builds();
    const auto tree = ht::CutEngine().gomory_hu(g).tree;
    EXPECT_EQ(tree.parent.size(), 48u);
    EXPECT_EQ(counters.max_flow_calls() - flows_before, 47u)
        << "threads=" << threads;
    EXPECT_EQ(counters.flow_builds() - builds_before, 1u)
        << "threads=" << threads;
  }
  ht::ThreadPool::reset_global();
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

// --- goldens captured from the pre-refactor seed build -------------------
// A failure here means the refactor changed an output byte; the arena
// paths are required to be observationally identical.

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
  // path that exercises the per-piece copies and the vertex-cut flow
  // hardest.
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

TEST(FlowEngineGolden, GoldensHoldAcrossThreadCounts) {
  // The pool size must not move a byte: at 1 and 4 threads both
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

TEST(FlowEngine, AttachRejectsBothTerminalsAtOneSlot) {
  // Disjointness of A and B is checked where terminals attach, in either
  // order, on all three expansions; a reset() clears the attachments.
  ht::Rng rng(65);
  const auto g = ht::graph::gnp_connected(12, 0.4, rng);
  const auto h = ht::hypergraph::random_uniform(12, 20, 3, rng);
  for (FlowNetwork net : {FlowNetwork::edge_cut_network(g),
                          FlowNetwork::vertex_cut_network(g),
                          FlowNetwork::hyperedge_cut_network(h)}) {
    net.reset();
    net.attach_source(3);
    EXPECT_THROW(net.attach_sink(3), std::logic_error);
    net.reset();
    net.attach_sink(5);
    EXPECT_THROW(net.attach_source(5), std::logic_error);
    EXPECT_THROW(net.attach_source(12), std::logic_error);
    EXPECT_THROW(net.attach_sink(-1), std::logic_error);
    net.reset();
    net.attach_source(5);
    net.attach_sink(3);
    EXPECT_GT(net.max_flow(), 0.0);
  }
}

}  // namespace

