#include "flow/cut_engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "flow/flow_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/perf_counters.hpp"
#include "util/run_context.hpp"
#include "util/thread_pool.hpp"
#include "util/work_arena.hpp"

namespace ht::flow {

namespace {

using ht::graph::Graph;
using ht::hypergraph::Hypergraph;
using GraphVertexId = ht::graph::VertexId;
using HyperVertexId = ht::hypergraph::VertexId;

// --- metrics ---------------------------------------------------------------

ht::obs::Histogram& solve_ns_histogram() {
  static ht::obs::Histogram& h =
      ht::obs::MetricsRegistry::global().histogram("flow.solve_ns");
  return h;
}

/// Records the end-to-end time of one min-cut query (solve + witness,
/// excluding network construction) into the "flow.solve_ns" histogram —
/// the source of the p99 flow-time gate.
class SolveTimer {
 public:
  SolveTimer() : start_(std::chrono::steady_clock::now()) {}
  ~SolveTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    solve_ns_histogram().record(static_cast<std::uint64_t>(ns));
  }
  SolveTimer(const SolveTimer&) = delete;
  SolveTimer& operator=(const SolveTimer&) = delete;

 private:
  std::chrono::steady_clock::time_point start_;
};

// --- shared helpers --------------------------------------------------------

template <typename VertexT>
void check_disjoint_nonempty(PieceAllocator::Scope& scope,
                             const std::vector<VertexT>& a,
                             const std::vector<VertexT>& b, VertexT n) {
  HT_CHECK(!a.empty() && !b.empty());
  auto mark = scope.alloc_zero<char>(static_cast<std::size_t>(n));
  for (VertexT v : a) {
    HT_CHECK(0 <= v && v < n);
    mark[static_cast<std::size_t>(v)] = 1;
  }
  for (VertexT v : b) {
    HT_CHECK(0 <= v && v < n);
    HT_CHECK_MSG(mark[static_cast<std::size_t>(v)] == 0,
                 "A and B intersect at vertex " << v);
  }
}

/// The cached engine for (kind, uid), or a freshly built one parked in
/// `fresh` when reuse is off / uid is 0. The returned reference must not be
/// held across a thread-pool wait (see WorkArena).
template <typename BuildFn>
FlowNetwork& acquire_network(std::uint32_t kind, std::uint64_t uid,
                             std::optional<FlowNetwork>& fresh,
                             BuildFn&& build) {
  // Apply the run's memory budget before parking another engine: evict
  // least-recently-used cached engines until the cache fits.
  if (RunState* run = current_run_state()) {
    const std::size_t budget = run->context().memory_budget_bytes;
    if (budget != 0) ht::WorkArena::local().enforce_budget(budget);
  }
  if (flow_reuse_enabled() && uid != 0) {
    FlowNetwork& net = ht::WorkArena::local().acquire<FlowNetwork>(
        kind, uid, static_cast<BuildFn&&>(build));
    if (net.queries() > 0) PerfCounters::global().add_flow_reuse();
    return net;
  }
  fresh.emplace(build());
  return *fresh;
}

}  // namespace

// ---------------------------------------------------------------------------
// Point queries

EdgeCutResult CutEngine::min_edge_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  // Span args stay schedule-independent: cut value and augmenting-path
  // count are deterministic (reset() restores exact capacities), while
  // whether the network was reused is thread-affinity-dependent and is
  // reported through metrics only.
  ht::obs::TraceSpan span("flow.min_edge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  PieceAllocator::Scope scope(WorkArena::local().pieces());
  check_disjoint_nonempty(scope, a, b, g.num_vertices());
  const NodeId n = g.num_vertices();
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kEdgeCutNetwork, g.uid(), fresh,
                      [&g] { return FlowNetwork::edge_cut_network(g); });
  net.reset();
  for (GraphVertexId v : a) net.attach_source(v);
  for (GraphVertexId v : b) net.attach_sink(v);
  net.max_flow();

  EdgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  out.source_side.assign(static_cast<std::size_t>(n), false);
  for (NodeId v = 0; v < n; ++v)
    out.source_side[static_cast<std::size_t>(v)] =
        reach[static_cast<std::size_t>(v)] != 0;
  for (ht::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    if (out.source_side[static_cast<std::size_t>(edge.u)] !=
        out.source_side[static_cast<std::size_t>(edge.v)]) {
      out.cut_edges.push_back(e);
      out.value += edge.weight;
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  return out;
}

VertexCutResult CutEngine::min_vertex_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  ht::obs::TraceSpan span("flow.min_vertex_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  PieceAllocator::Scope scope(WorkArena::local().pieces());
  check_disjoint_nonempty(scope, a, b, g.num_vertices());
  const GraphVertexId n = g.num_vertices();
  // Node splitting: v_in = 2v, v_out = 2v+1 (see vertex_cut_network).
  auto v_in = [](GraphVertexId v) { return static_cast<NodeId>(2 * v); };
  auto v_out = [](GraphVertexId v) { return static_cast<NodeId>(2 * v + 1); };
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kVertexCutNetwork, g.uid(), fresh,
                      [&g] { return FlowNetwork::vertex_cut_network(g); });
  net.reset();
  for (GraphVertexId v : a) net.attach_source(v);
  for (GraphVertexId v : b) net.attach_sink(v);
  net.max_flow();

  VertexCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  for (GraphVertexId v = 0; v < n; ++v) {
    if (reach[static_cast<std::size_t>(v_in(v))] &&
        !reach[static_cast<std::size_t>(v_out(v))]) {
      out.cut_vertices.push_back(v);
      out.value += g.vertex_weight(v);
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  HT_DCHECK(!out.complete || vertex_cut_separates(g, out.cut_vertices, a, b));
  return out;
}

HyperedgeCutResult CutEngine::min_hyperedge_cut(
    const Hypergraph& h, const std::vector<HyperVertexId>& a,
    const std::vector<HyperVertexId>& b) const {
  HT_CHECK(h.finalized());
  ht::obs::TraceSpan span("flow.min_hyperedge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  PieceAllocator::Scope scope(WorkArena::local().pieces());
  check_disjoint_nonempty(scope, a, b, h.num_vertices());
  const auto n = h.num_vertices();
  const auto m = h.num_edges();
  // Lawler expansion node ids (see hyperedge_cut_network).
  auto e_in = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e);
  };
  auto e_out = [n](ht::hypergraph::EdgeId e) {
    return static_cast<NodeId>(n + 2 * e + 1);
  };
  std::optional<FlowNetwork> fresh;
  FlowNetwork& net =
      acquire_network(kHyperedgeCutNetwork, h.uid(), fresh,
                      [&h] { return FlowNetwork::hyperedge_cut_network(h); });
  net.reset();
  for (auto v : a) net.attach_source(v);
  for (auto v : b) net.attach_sink(v);
  net.max_flow();

  // A hyperedge is cut iff e_in is reachable and e_out is not (for any max
  // flow, e_out is reachable exactly when all pins are).
  HyperedgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  for (ht::hypergraph::EdgeId e = 0; e < m; ++e) {
    if (reach[static_cast<std::size_t>(e_in(e))] &&
        !reach[static_cast<std::size_t>(e_out(e))]) {
      out.cut_edges.push_back(e);
      out.value += h.edge_weight(e);
    }
  }
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  HT_DCHECK(!out.complete || hyperedge_cut_separates(h, out.cut_edges, a, b));
  return out;
}

// ---------------------------------------------------------------------------
// Gomory–Hu trees

namespace {

/// Minimum parent_cut on the tree path s..t of a parent-array tree.
double tree_path_min(const std::vector<std::int32_t>& parent,
                     const std::vector<double>& parent_cut, std::int32_t s,
                     std::int32_t t) {
  HT_CHECK(s != t);
  // Walk both vertices to the root; the answer is the minimum parent_cut
  // below the junction of the two paths.
  auto path_to_root = [&parent](std::int32_t v) {
    std::vector<std::int32_t> path{v};
    while (parent[static_cast<std::size_t>(path.back())] != -1)
      path.push_back(parent[static_cast<std::size_t>(path.back())]);
    return path;
  };
  const std::vector<std::int32_t> ps = path_to_root(s);
  const std::vector<std::int32_t> pt = path_to_root(t);
  // Strip the common suffix (shared ancestors) but keep the LCA junction.
  std::size_t is = ps.size(), it = pt.size();
  while (is > 0 && it > 0 && ps[is - 1] == pt[it - 1]) {
    --is;
    --it;
  }
  double best = kInfiniteCapacity;
  for (std::size_t i = 0; i < is; ++i)
    best = std::min(best, parent_cut[static_cast<std::size_t>(ps[i])]);
  for (std::size_t i = 0; i < it; ++i)
    best = std::min(best, parent_cut[static_cast<std::size_t>(pt[i])]);
  return best;
}

/// Gusfield apply step for vertex i with cut value `value`, whose source
/// side (i's side) is the indicator `on_i_side`: record the cut, re-hang
/// the unapplied vertices k > i of i's side that hang off j = parent[i],
/// and splice i between j and j's parent if that parent fell on i's side.
template <typename Tree, typename Side>
void gusfield_apply(Tree& tree, std::int32_t i, double value,
                    const Side& on_i_side) {
  auto& parent = tree.parent;
  auto& parent_cut = tree.parent_cut;
  const auto n = static_cast<std::int32_t>(parent.size());
  const std::int32_t j = parent[static_cast<std::size_t>(i)];
  parent_cut[static_cast<std::size_t>(i)] = value;
  for (std::int32_t k = i + 1; k < n; ++k) {
    if (parent[static_cast<std::size_t>(k)] == j &&
        on_i_side[static_cast<std::size_t>(k)])
      parent[static_cast<std::size_t>(k)] = i;
  }
  const std::int32_t pj = parent[static_cast<std::size_t>(j)];
  if (pj != -1 && on_i_side[static_cast<std::size_t>(pj)]) {
    parent[static_cast<std::size_t>(i)] = pj;
    parent_cut[static_cast<std::size_t>(i)] =
        parent_cut[static_cast<std::size_t>(j)];
    parent[static_cast<std::size_t>(j)] = i;
    parent_cut[static_cast<std::size_t>(j)] = value;
  }
}

/// Decides, from the measured hit rate, whether a speculative Gusfield
/// batch pays. A W-wide batch costs about 1 + (1 - h) * W flow-times of
/// wall for W applies when a fraction h of its speculative cuts is still
/// valid at apply time (the misses are recomputed serially), against W
/// flow-times serially. That model already favours speculation at h > 1/W,
/// but it ignores what speculation costs besides wall: every worker keeps
/// its own copy of the flow network (3.4 MB per thread for the n=6000 ring
/// of clusters' Lawler network), the concurrent flows compete for memory
/// bandwidth, and inside a snapshot build they take cores from the two
/// tree builders. On that ring (h ~ 0.4) Gomory–Hu at 4 threads was slower
/// than at 1 (2.25 s vs 2.0 s) and threw away 3,600 of 9,599 flows; on a
/// planted bisection (h ~ 1) speculation made it 2.6x faster. So the gate
/// opens only once kMinObserved vertices were seen and at least 3/4 of the
/// recent ones hit. "Recent" is a decaying window: both counts halve every
/// kWindow observations. These constants are not tuned: any threshold
/// between the two measured hit rates decides both instances alike, and
/// no 4-thread benchmark workload opens the gate. The decision only
/// changes which flows run where; the applied sequence, and so the tree,
/// is serial Gusfield either way.
class SpeculationGate {
 public:
  void record(bool hit) {
    ++observed_;
    hits_ += hit ? 1 : 0;
    if (++window_ == kWindow) {
      hits_ /= 2;
      window_ /= 2;
    }
  }
  bool open() const {
    return observed_ >= kMinObserved && 4 * hits_ >= 3 * window_;
  }

 private:
  static constexpr std::int32_t kMinObserved = 32;
  static constexpr std::int32_t kWindow = 256;
  std::int64_t observed_ = 0;
  std::int32_t hits_ = 0;
  std::int32_t window_ = 0;
};

/// Gusfield's n-1 max flows over vertices 1..n-1 in order, shared by both
/// Gomory–Hu builders. `cut(i, j)` answers the i-j min cut; `apply(i, c)`
/// applies a complete cut to out.tree (via gusfield_apply).
///
/// Vertices are taken in windows of pool-size W. At a window's start the
/// parents of its vertices are recorded; a vertex "hits" when its parent is
/// unchanged when it is applied. While the SpeculationGate is open, the
/// window's (i, parent[i]) subproblems run over the pool against that
/// snapshot, a hit applies its speculative cut and a miss is recomputed
/// against the live parent. While it is closed, every cut is computed
/// serially against the live parent and the hits are only counted. The
/// applied sequence is therefore exactly the serial Gusfield run —
/// identical for every thread count and gate decision.
template <typename RunResult, typename CutFn, typename ApplyFn>
void run_gusfield(std::int32_t n, RunResult& out, CutFn&& cut,
                  ApplyFn&& apply) {
  RunState* run = current_run_state();
  auto& tree = out.tree;
  tree.root = 0;
  tree.parent.assign(static_cast<std::size_t>(n), 0);
  tree.parent[0] = -1;
  tree.parent_cut.assign(static_cast<std::size_t>(n), 0.0);
  using Cut = decltype(cut(0, 0));
  const auto width = static_cast<std::int32_t>(
      std::max<std::size_t>(1, ThreadPool::global().size()));
  SpeculationGate gate;
  bool interrupted = false;
  for (std::int32_t lo = 1; lo < n && !interrupted; lo += width) {
    const std::int32_t hi = std::min(n, lo + width);
    const auto count = static_cast<std::size_t>(hi - lo);
    const std::vector<std::int32_t> snapshot(tree.parent.begin() + lo,
                                             tree.parent.begin() + hi);
    const bool speculate = count > 1 && gate.open();
    std::vector<Cut> speculative(speculate ? count : 0);
    if (speculate) {
      parallel_for(count, [&](std::size_t t) {
        speculative[t] = cut(lo + static_cast<std::int32_t>(t), snapshot[t]);
      });
    }
    for (std::int32_t i = lo; i < hi; ++i) {
      // Anytime stop, at the serial apply boundary only: vertices before
      // i keep their exact cuts, i and beyond stay provisional. An
      // interrupted (incomplete) flow is never applied — its witness need
      // not separate.
      if (run != nullptr && !run->check().ok()) {
        interrupted = true;
        break;
      }
      const std::int32_t j = tree.parent[static_cast<std::size_t>(i)];
      const auto t = static_cast<std::size_t>(i - lo);
      const bool hit = snapshot[t] == j;
      const Cut c = speculate && hit ? std::move(speculative[t]) : cut(i, j);
      if (!c.complete) {
        interrupted = true;
        break;
      }
      apply(i, c);
      gate.record(hit);
      ++out.applied;
      if (run != nullptr) run->note_piece();
    }
  }
  out.status = interrupted && run != nullptr ? run->status() : Status::Ok();
}

}  // namespace

double GomoryHuTree::min_cut(GraphVertexId s, GraphVertexId t) const {
  return tree_path_min(parent, parent_cut, s, t);
}

Graph GomoryHuTree::as_graph() const {
  Graph g(static_cast<GraphVertexId>(parent.size()));
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] != -1)
      g.add_edge(static_cast<GraphVertexId>(v), parent[v], parent_cut[v]);
  }
  g.finalize();
  return g;
}

double HypergraphGomoryHuTree::min_cut(HyperVertexId s,
                                       HyperVertexId t) const {
  return tree_path_min(parent, parent_cut, s, t);
}

GomoryHuRunResult CutEngine::gomory_hu(const Graph& g) const {
  HT_CHECK(g.finalized());
  const GraphVertexId n = g.num_vertices();
  HT_CHECK(n >= 2);
  // One span per builder run. No per-batch spans: batch sizes follow the
  // pool size, so they would break thread-count-invariant traces; the
  // nested flow.min_edge_cut spans carry the per-flow detail.
  ht::obs::TraceSpan trace("gomory_hu");
  trace.arg("n", n);
  ht::PhaseTimer phase("gomory_hu.graph");
  GomoryHuRunResult out;
  run_gusfield(
      n, out,
      [&](GraphVertexId i, GraphVertexId j) {
        return min_edge_cut(g, {i}, {j});
      },
      [&](GraphVertexId i, const EdgeCutResult& cut) {
        gusfield_apply(out.tree, i, cut.value, cut.source_side);
      });
  trace.arg("applied", out.applied);
  return out;
}

HypergraphGomoryHuRunResult CutEngine::gomory_hu(const Hypergraph& h) const {
  HT_CHECK(h.finalized());
  const HyperVertexId n = h.num_vertices();
  HT_CHECK(n >= 2);
  // One span per builder run; no per-batch spans (see the graph builder).
  ht::obs::TraceSpan trace("gomory_hu.hypergraph");
  trace.arg("n", n);
  trace.arg("m", h.num_edges());
  ht::PhaseTimer phase("gomory_hu.hypergraph");
  HypergraphGomoryHuRunResult out;
  const auto m = static_cast<std::size_t>(h.num_edges());
  run_gusfield(
      n, out,
      [&](HyperVertexId i, HyperVertexId j) {
        return min_hyperedge_cut(h, {i}, {j});
      },
      [&](HyperVertexId i, const HyperedgeCutResult& cut) {
        // Source side of the canonical minimum cut: vertices still
        // reachable from i after removing the cut hyperedges. The scratch
        // is per-apply and pool-allocated — n-1 applies reuse one chunk.
        PieceAllocator::Scope scope(WorkArena::local().pieces());
        auto removed = scope.alloc_zero<char>(m);
        auto edge_done = scope.alloc_zero<char>(m);
        auto reachable = scope.alloc_zero<char>(static_cast<std::size_t>(n));
        auto stack = scope.alloc<HyperVertexId>(static_cast<std::size_t>(n));
        std::int32_t top = 0;
        for (auto e : cut.cut_edges) removed[static_cast<std::size_t>(e)] = 1;
        stack[top++] = i;
        reachable[static_cast<std::size_t>(i)] = 1;
        while (top > 0) {
          const HyperVertexId v = stack[--top];
          for (auto e : h.incident_edges(v)) {
            if (removed[static_cast<std::size_t>(e)] ||
                edge_done[static_cast<std::size_t>(e)])
              continue;
            edge_done[static_cast<std::size_t>(e)] = 1;
            for (auto u : h.pins(e)) {
              if (!reachable[static_cast<std::size_t>(u)]) {
                reachable[static_cast<std::size_t>(u)] = 1;
                stack[top++] = u;
              }
            }
          }
        }
        HT_CHECK(!reachable[static_cast<std::size_t>(
            out.tree.parent[static_cast<std::size_t>(i)])]);
        gusfield_apply(out.tree, i, cut.value, reachable);
      });
  trace.arg("applied", out.applied);
  return out;
}

// ---------------------------------------------------------------------------
// Witness predicates

bool vertex_cut_separates(const Graph& g,
                          const std::vector<GraphVertexId>& cut,
                          const std::vector<GraphVertexId>& a,
                          const std::vector<GraphVertexId>& b) {
  HT_CHECK(g.finalized());
  std::vector<bool> removed(static_cast<std::size_t>(g.num_vertices()), false);
  for (GraphVertexId v : cut) removed[static_cast<std::size_t>(v)] = true;
  auto [comp, count] = ht::graph::connected_components_excluding(g, removed);
  (void)count;
  std::vector<char> a_comps(static_cast<std::size_t>(
                                std::max<std::int32_t>(count, 1)),
                            0);
  for (GraphVertexId v : a) {
    const auto c = comp[static_cast<std::size_t>(v)];
    if (c >= 0) a_comps[static_cast<std::size_t>(c)] = 1;
  }
  for (GraphVertexId v : b) {
    const auto c = comp[static_cast<std::size_t>(v)];
    if (c >= 0 && a_comps[static_cast<std::size_t>(c)]) return false;
  }
  return true;
}

bool hyperedge_cut_separates(const Hypergraph& h,
                             const std::vector<ht::hypergraph::EdgeId>& cut,
                             const std::vector<HyperVertexId>& a,
                             const std::vector<HyperVertexId>& b) {
  HT_CHECK(h.finalized());
  std::vector<bool> edge_removed(static_cast<std::size_t>(h.num_edges()),
                                 false);
  for (auto e : cut) edge_removed[static_cast<std::size_t>(e)] = true;
  // BFS from A over surviving hyperedges.
  std::vector<bool> visited(static_cast<std::size_t>(h.num_vertices()), false);
  std::vector<bool> edge_done(static_cast<std::size_t>(h.num_edges()), false);
  std::vector<HyperVertexId> stack;
  for (auto v : a) {
    if (!visited[static_cast<std::size_t>(v)]) {
      visited[static_cast<std::size_t>(v)] = true;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    for (auto e : h.incident_edges(v)) {
      if (edge_removed[static_cast<std::size_t>(e)] ||
          edge_done[static_cast<std::size_t>(e)])
        continue;
      edge_done[static_cast<std::size_t>(e)] = true;
      for (auto u : h.pins(e)) {
        if (!visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = true;
          stack.push_back(u);
        }
      }
    }
  }
  for (auto v : b)
    if (visited[static_cast<std::size_t>(v)]) return false;
  return true;
}

}  // namespace ht::flow
