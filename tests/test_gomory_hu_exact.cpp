// Exactness of the Gomory–Hu builders against plain serial Gusfield.
//
// CutEngine::gomory_hu runs every Gusfield step on the one network it owns
// and solves each step against a certified sink set (the parent plus tree
// neighbours whose cut to it is at least the step vertex's weighted
// degree). Both are meant to leave the output exactly as the textbook
// algorithm's: one min_*_cut(h, {i}, {parent[i]}) per step, applied in
// order. The reference below is that textbook run, through the public
// CutEngine API only, so each of its steps is a fresh one-shot query on a
// network of its own; every comparison is byte for byte, at 1 and at 4
// threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;

struct Tree {
  std::vector<std::int32_t> parent;
  std::vector<double> parent_cut;
};

/// The i-side of a min i-j cut and its value.
struct Cut {
  double value = 0.0;
  std::vector<bool> side;
};

/// Plain serial Gusfield. `cut(i, j)` answers the min i-j cut; `lambda(s,
/// t)` the min s-t cut value. With `check_each_step`, after every apply
/// each applied k (1..i) must satisfy parent_cut[k] == lambda(k,
/// parent[k]), Gusfield's invariant that certified sink sets rely on.
Tree reference_gusfield(
    std::int32_t n, const std::function<Cut(std::int32_t, std::int32_t)>& cut,
    const std::function<double(std::int32_t, std::int32_t)>& lambda,
    bool check_each_step) {
  Tree t;
  t.parent.assign(static_cast<std::size_t>(n), 0);
  t.parent[0] = -1;
  t.parent_cut.assign(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t i = 1; i < n; ++i) {
    const std::int32_t j = t.parent[static_cast<std::size_t>(i)];
    const Cut c = cut(i, j);
    t.parent_cut[static_cast<std::size_t>(i)] = c.value;
    for (std::int32_t k = i + 1; k < n; ++k) {
      if (t.parent[static_cast<std::size_t>(k)] == j &&
          c.side[static_cast<std::size_t>(k)])
        t.parent[static_cast<std::size_t>(k)] = i;
    }
    const std::int32_t pj = t.parent[static_cast<std::size_t>(j)];
    if (pj != -1 && c.side[static_cast<std::size_t>(pj)]) {
      t.parent[static_cast<std::size_t>(i)] = pj;
      t.parent_cut[static_cast<std::size_t>(i)] =
          t.parent_cut[static_cast<std::size_t>(j)];
      t.parent[static_cast<std::size_t>(j)] = i;
      t.parent_cut[static_cast<std::size_t>(j)] = c.value;
    }
    if (!check_each_step) continue;
    for (std::int32_t k = 1; k <= i; ++k) {
      const std::int32_t p = t.parent[static_cast<std::size_t>(k)];
      EXPECT_EQ(t.parent_cut[static_cast<std::size_t>(k)], lambda(k, p))
          << "after applying " << i << ": edge " << k << "-" << p;
    }
  }
  return t;
}

/// Vertices reachable from i once the cut hyperedges are removed: the
/// side Gusfield applies for a hyperedge cut.
std::vector<bool> side_after_removing(
    const Hypergraph& h, std::int32_t i,
    const std::vector<ht::hypergraph::EdgeId>& cut_edges) {
  std::vector<bool> removed(static_cast<std::size_t>(h.num_edges()), false);
  for (auto e : cut_edges) removed[static_cast<std::size_t>(e)] = true;
  std::vector<bool> side(static_cast<std::size_t>(h.num_vertices()), false);
  std::vector<std::int32_t> stack{i};
  side[static_cast<std::size_t>(i)] = true;
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    for (auto e : h.incident_edges(v)) {
      if (removed[static_cast<std::size_t>(e)]) continue;
      for (auto u : h.pins(e)) {
        if (side[static_cast<std::size_t>(u)]) continue;
        side[static_cast<std::size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  return side;
}

Tree reference_gusfield(const Hypergraph& h, bool check_each_step) {
  const ht::CutEngine engine;
  return reference_gusfield(
      h.num_vertices(),
      [&](std::int32_t i, std::int32_t j) {
        const auto c = engine.min_hyperedge_cut(h, {i}, {j});
        return Cut{c.value, side_after_removing(h, i, c.cut_edges)};
      },
      [&](std::int32_t s, std::int32_t t) {
        return engine.min_hyperedge_cut(h, {s}, {t}).value;
      },
      check_each_step);
}

Tree reference_gusfield(const Graph& g, bool check_each_step) {
  const ht::CutEngine engine;
  return reference_gusfield(
      g.num_vertices(),
      [&](std::int32_t i, std::int32_t j) {
        auto c = engine.min_edge_cut(g, {i}, {j});
        return Cut{c.value, std::move(c.source_side)};
      },
      [&](std::int32_t s, std::int32_t t) {
        return engine.min_edge_cut(g, {s}, {t}).value;
      },
      check_each_step);
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename Built>
void expect_identical(const Tree& want, const Built& got,
                      const std::string& what) {
  EXPECT_TRUE(same_bytes(want.parent, got.parent)) << what << ": parent";
  EXPECT_TRUE(same_bytes(want.parent_cut, got.parent_cut))
      << what << ": parent_cut";
}

/// Builds every instance with CutEngine::gomory_hu at 1 and at 4 threads
/// and compares each with its reference tree.
template <typename Instance>
void expect_builders_match(const std::vector<Instance>& instances,
                           const std::vector<Tree>& references) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ht::ThreadPool::reset_global(threads);
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const auto built = ht::CutEngine().gomory_hu(instances[k]);
      EXPECT_TRUE(built.status.ok());
      expect_identical(references[k], built.tree,
                       "instance " + std::to_string(k) + " at " +
                           std::to_string(threads) + " threads");
    }
  }
  ht::ThreadPool::reset_global();
}

/// Net or edge weight of kind 0 (unit), 1 (integer) or 2 (dyadic
/// fraction), zero with probability `zero_p`. Integer and dyadic sums are
/// exact in double, so the builders' cut comparisons are exact too.
double draw_weight(ht::Rng& rng, std::uint64_t kind, double zero_p) {
  if (rng.next_bool(zero_p)) return 0.0;
  if (kind == 0) return 1.0;
  if (kind == 1) return static_cast<double>(rng.next_int(1, 5));
  return static_cast<double>(rng.next_int(1, 24)) / 8.0;
}

/// Random connected hypergraph on 2..12 vertices: a random spanning tree
/// of positive 2-pin nets, extra nets of 2..4 pins (some zero-weight,
/// some duplicated), and sometimes a net spanning every vertex.
Hypergraph small_hypergraph(std::uint64_t seed) {
  ht::Rng rng(seed);
  const std::uint64_t kind = seed % 3;
  const auto n = static_cast<std::int32_t>(rng.next_int(2, 12));
  std::vector<std::int32_t> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  for (std::int32_t v = n - 1; v > 0; --v)
    std::swap(label[static_cast<std::size_t>(v)],
              label[static_cast<std::size_t>(rng.next_int(0, v))]);
  Hypergraph h(n);
  for (std::int32_t v = 1; v < n; ++v) {
    const auto u = static_cast<std::int32_t>(rng.next_int(0, v - 1));
    h.add_edge({label[static_cast<std::size_t>(v)],
                label[static_cast<std::size_t>(u)]},
               draw_weight(rng, kind, 0.0));
  }
  const auto extra = rng.next_int(0, 2 * n);
  for (std::int64_t e = 0; e < extra; ++e) {
    const auto size = rng.next_int(2, std::min<std::int64_t>(n, 4));
    std::vector<std::int32_t> pins;
    while (static_cast<std::int64_t>(pins.size()) < size) {
      const auto v = static_cast<std::int32_t>(rng.next_int(0, n - 1));
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    h.add_edge(pins, draw_weight(rng, kind, 0.15));
    if (rng.next_bool(0.2)) h.add_edge(pins, draw_weight(rng, kind, 0.15));
  }
  if (n > 2 && rng.next_bool(0.3)) {
    std::vector<std::int32_t> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    h.add_edge(all, draw_weight(rng, kind, 0.15));
  }
  h.finalize();
  return h;
}

/// Random connected graph on 2..12 vertices, built like small_hypergraph
/// with 2-pin nets only; parallel edges play the duplicated nets.
Graph small_graph(std::uint64_t seed) {
  ht::Rng rng(seed);
  const std::uint64_t kind = seed % 3;
  const auto n = static_cast<std::int32_t>(rng.next_int(2, 12));
  Graph g(n);
  for (std::int32_t v = 1; v < n; ++v)
    g.add_edge(v, static_cast<std::int32_t>(rng.next_int(0, v - 1)),
               draw_weight(rng, kind, 0.0));
  const auto extra = rng.next_int(0, 2 * n);
  for (std::int64_t e = 0; e < extra && n > 2; ++e) {
    const auto u = static_cast<std::int32_t>(rng.next_int(0, n - 1));
    auto v = static_cast<std::int32_t>(rng.next_int(0, n - 2));
    if (v >= u) ++v;
    g.add_edge(u, v, draw_weight(rng, kind, 0.15));
    if (rng.next_bool(0.2)) g.add_edge(u, v, draw_weight(rng, kind, 0.15));
  }
  g.finalize();
  return g;
}

constexpr std::uint64_t kSmallInstances = 210;

TEST(GomoryHuExact, HypergraphMatchesSerialGusfieldOnSmallInstances) {
  std::vector<Hypergraph> instances;
  std::vector<Tree> references;
  for (std::uint64_t seed = 0; seed < kSmallInstances; ++seed) {
    instances.push_back(small_hypergraph(seed));
    references.push_back(reference_gusfield(instances.back(), true));
  }
  expect_builders_match(instances, references);
}

TEST(GomoryHuExact, GraphMatchesSerialGusfieldOnSmallInstances) {
  std::vector<Graph> instances;
  std::vector<Tree> references;
  for (std::uint64_t seed = 0; seed < kSmallInstances; ++seed) {
    instances.push_back(small_graph(1000 + seed));
    references.push_back(reference_gusfield(instances.back(), true));
  }
  expect_builders_match(instances, references);
}

TEST(GomoryHuExact, RingOfClustersMatchesSerialGusfield) {
  // Large diameter: most steps run against a far parent, so the sink sets
  // do the most work here. Checking the invariant after every one of the
  // 599 applies would take 180k flows; the final tree is checked instead.
  std::vector<Hypergraph> instances{ht::hypergraph::ring_of_clusters(60, 10)};
  std::vector<Tree> references{reference_gusfield(instances[0], false)};
  const ht::CutEngine engine;
  for (std::int32_t k = 1; k < instances[0].num_vertices(); ++k) {
    const std::int32_t p = references[0].parent[static_cast<std::size_t>(k)];
    EXPECT_EQ(references[0].parent_cut[static_cast<std::size_t>(k)],
              engine.min_hyperedge_cut(instances[0], {k}, {p}).value);
  }
  expect_builders_match(instances, references);
}

TEST(GomoryHuExact, PlantedBisectionMatchesSerialGusfield) {
  // Nearly a star: parents rarely move between steps.
  ht::Rng rng(808);
  std::vector<Hypergraph> instances{
      ht::hypergraph::planted_bisection(150, 3, 900, 10, rng)};
  ASSERT_TRUE(ht::hypergraph::is_connected(instances[0]));
  std::vector<Tree> references{reference_gusfield(instances[0], false)};
  expect_builders_match(instances, references);
}

TEST(GomoryHuExact, WeightedGraphMatchesSerialGusfield) {
  ht::Rng rng(4242);
  Graph base = ht::graph::gnp_connected(120, 5.0 / 120, rng);
  Graph g(base.num_vertices());
  for (const auto& e : base.edges())
    g.add_edge(e.u, e.v, static_cast<double>(rng.next_int(1, 16)) / 4.0);
  g.finalize();
  std::vector<Graph> instances{std::move(g)};
  std::vector<Tree> references{reference_gusfield(instances[0], false)};
  expect_builders_match(instances, references);
}

TEST(GomoryHuExact, OneBuildRecordsOneSinkSetPerStep) {
  ht::ThreadPool::reset_global(1);
  const auto h = ht::hypergraph::ring_of_clusters(20, 10);
  auto& sinks =
      ht::obs::MetricsRegistry::global().histogram("flow.gusfield_sinks");
  auto& touched =
      ht::obs::MetricsRegistry::global().histogram("flow.touched_arcs");
  const std::uint64_t sinks_before = sinks.count();
  const std::uint64_t sink_sum_before = sinks.sum();
  const std::uint64_t resets_before = touched.count();
  const auto built = ht::CutEngine().gomory_hu(h);
  ht::ThreadPool::reset_global();
  const auto steps = static_cast<std::uint64_t>(h.num_vertices() - 1);
  EXPECT_EQ(built.applied, h.num_vertices() - 1);
  EXPECT_EQ(sinks.count() - sinks_before, steps);
  // Every set holds the parent; on a ring most hold more.
  EXPECT_GT(sinks.sum() - sink_sum_before, steps);
  // One reset per flow, each restoring what that flow wrote.
  EXPECT_EQ(touched.count() - resets_before, steps);
}

}  // namespace
