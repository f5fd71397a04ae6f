#include "flow/cut_engine.hpp"

#include <algorithm>
#include <chrono>

#include "flow/flow_network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/perf_counters.hpp"
#include "util/run_context.hpp"

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

/// Sink-set size of each Gomory–Hu flow (see certified_sinks).
ht::obs::Histogram& gusfield_sinks_histogram() {
  static ht::obs::Histogram& h =
      ht::obs::MetricsRegistry::global().histogram("flow.gusfield_sinks");
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

/// Restores `net`, attaches A and B (attach_* rejects an id out of range or
/// in both sets) and runs Dinic.
template <typename VertexT>
void run_flow(FlowNetwork& net, const std::vector<VertexT>& a,
              const std::vector<VertexT>& b) {
  HT_CHECK(!a.empty() && !b.empty());
  net.reset();
  for (VertexT v : a) net.attach_source(v);
  for (VertexT v : b) net.attach_sink(v);
  net.max_flow();
}

/// Sorts witness ids ascending and returns their total weight, summed in
/// that order: the same value, bit for bit, as an ascending scan.
template <typename Id, typename WeightFn>
double sort_and_sum(std::vector<Id>& ids, WeightFn&& weight) {
  std::sort(ids.begin(), ids.end());
  double total = 0.0;
  for (const Id id : ids) total += weight(id);
  return total;
}

/// One min edge cut query on `net`, an edge_cut_network(g): the cut edges
/// are those leaving the reached vertices.
EdgeCutResult solve_edge_cut(FlowNetwork& net, const Graph& g,
                             const std::vector<GraphVertexId>& a,
                             const std::vector<GraphVertexId>& b) {
  ht::obs::TraceSpan span("flow.min_edge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  run_flow(net, a, b);
  const NodeId n = g.num_vertices();

  EdgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  out.source_side.assign(static_cast<std::size_t>(n), false);
  for (const NodeId v : net.reached()) {
    if (v >= n) continue;  // the super source
    out.source_side[static_cast<std::size_t>(v)] = true;
    for (const auto& entry : g.neighbors(v))
      if (!reach[static_cast<std::size_t>(entry.to)])
        out.cut_edges.push_back(entry.edge);
  }
  out.value = sort_and_sum(out.cut_edges, [&g](ht::graph::EdgeId e) {
    return g.edge(e).weight;
  });
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  return out;
}

/// One min vertex cut query on `net`, a vertex_cut_network(g): v is cut
/// when v_in = 2v is reached and v_out = 2v+1 is not.
VertexCutResult solve_vertex_cut(FlowNetwork& net, const Graph& g,
                                 const std::vector<GraphVertexId>& a,
                                 const std::vector<GraphVertexId>& b) {
  ht::obs::TraceSpan span("flow.min_vertex_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  run_flow(net, a, b);
  const NodeId split_nodes = 2 * g.num_vertices();

  VertexCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  for (const NodeId x : net.reached()) {
    if (x < split_nodes && x % 2 == 0 &&
        !reach[static_cast<std::size_t>(x + 1)])
      out.cut_vertices.push_back(x / 2);
  }
  out.value = sort_and_sum(out.cut_vertices, [&g](GraphVertexId v) {
    return g.vertex_weight(v);
  });
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  HT_DCHECK(!out.complete || vertex_cut_separates(g, out.cut_vertices, a, b));
  return out;
}

/// One min hyperedge cut query on `net`, a hyperedge_cut_network(h): net e
/// is cut when e_in = n+2e is reached and e_out = n+2e+1 is not (for any
/// max flow, e_out is reachable exactly when all pins are).
HyperedgeCutResult solve_hyperedge_cut(FlowNetwork& net, const Hypergraph& h,
                                       const std::vector<HyperVertexId>& a,
                                       const std::vector<HyperVertexId>& b) {
  ht::obs::TraceSpan span("flow.min_hyperedge_cut");
  span.arg("a", a.size());
  span.arg("b", b.size());
  PerfCounters::global().add_max_flow_call();
  SolveTimer timer;
  run_flow(net, a, b);
  const NodeId n = h.num_vertices();
  const NodeId net_nodes_end = n + 2 * h.num_edges();

  HyperedgeCutResult out;
  out.complete = net.last_flow_complete();
  const std::vector<char>& reach = net.source_side();
  for (const NodeId x : net.reached()) {
    if (x >= n && x < net_nodes_end && (x - n) % 2 == 0 &&
        !reach[static_cast<std::size_t>(x + 1)])
      out.cut_edges.push_back((x - n) / 2);
  }
  out.value = sort_and_sum(out.cut_edges, [&h](ht::hypergraph::EdgeId e) {
    return h.edge_weight(e);
  });
  span.arg("cut_value", out.value);
  span.arg("augmenting_paths", net.last_augmenting_paths());
  HT_DCHECK(!out.complete || hyperedge_cut_separates(h, out.cut_edges, a, b));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Point queries: one network per call, freed on return

EdgeCutResult CutEngine::min_edge_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  FlowNetwork net = FlowNetwork::edge_cut_network(g);
  return solve_edge_cut(net, g, a, b);
}

VertexCutResult CutEngine::min_vertex_cut(
    const Graph& g, const std::vector<GraphVertexId>& a,
    const std::vector<GraphVertexId>& b) const {
  HT_CHECK(g.finalized());
  FlowNetwork net = FlowNetwork::vertex_cut_network(g);
  return solve_vertex_cut(net, g, a, b);
}

HyperedgeCutResult CutEngine::min_hyperedge_cut(
    const Hypergraph& h, const std::vector<HyperVertexId>& a,
    const std::vector<HyperVertexId>& b) const {
  HT_CHECK(h.finalized());
  FlowNetwork net = FlowNetwork::hyperedge_cut_network(h);
  return solve_hyperedge_cut(net, h, a, b);
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
/// side (i's side) is the vertex part of what `net` reached: record the cut,
/// re-hang the unapplied vertices k > i of i's side that hang off
/// j = parent[i], and splice i between j and j's parent if that parent fell
/// on i's side. Vertices are nodes 0..n-1 of both expansions.
template <typename Tree>
void gusfield_apply(Tree& tree, std::int32_t i, double value,
                    const FlowNetwork& net) {
  auto& parent = tree.parent;
  auto& parent_cut = tree.parent_cut;
  const auto n = static_cast<std::int32_t>(parent.size());
  const std::int32_t j = parent[static_cast<std::size_t>(i)];
  HT_CHECK(!net.on_source_side(j));
  parent_cut[static_cast<std::size_t>(i)] = value;
  for (const NodeId k : net.reached()) {
    if (k > i && k < n && parent[static_cast<std::size_t>(k)] == j)
      parent[static_cast<std::size_t>(k)] = i;
  }
  const std::int32_t pj = parent[static_cast<std::size_t>(j)];
  if (pj != -1 && net.on_source_side(pj)) {
    parent[static_cast<std::size_t>(i)] = pj;
    parent_cut[static_cast<std::size_t>(i)] =
        parent_cut[static_cast<std::size_t>(j)];
    parent[static_cast<std::size_t>(j)] = i;
    parent_cut[static_cast<std::size_t>(j)] = value;
  }
}

/// The sink set X for Gusfield step i against j = parent[i]: j plus every
/// applied tree neighbour x of j (its children below i, and its parent if
/// j is not the root) whose tree-edge cut lambda(x, j) is at least
/// u >= w(delta({i})).
///
/// The i-X min cut answers the i-j query exactly. Its value F <= u, since
/// {i} separates i from X. An i-j cut whose i side holds some x in X
/// separates x from j, so it costs at least lambda(x, j) >= u >= F; every
/// other i-j cut is an i-X cut. Hence lambda(i, j) = F, and the minimal
/// i-j min cut avoids X (when F = u it is {i}), so it is also the minimal
/// i-X min cut: the one residual reachability returns. The flow only has
/// to reach the nearest certified sink. This relies on Gusfield's
/// invariant parent_cut[k] == lambda(k, parent[k]) for every applied k,
/// and on exact arithmetic in the comparison (integer and dyadic weights
/// sum exactly; other weights may, at worst, drop a tied x).
template <typename Tree>
std::vector<std::int32_t> certified_sinks(const Tree& tree, std::int32_t i,
                                          double u) {
  const auto& parent = tree.parent;
  const auto& parent_cut = tree.parent_cut;
  const std::int32_t j = parent[static_cast<std::size_t>(i)];
  std::vector<std::int32_t> sinks{j};
  for (std::int32_t k = 1; k < i; ++k) {
    if (parent[static_cast<std::size_t>(k)] == j &&
        parent_cut[static_cast<std::size_t>(k)] >= u)
      sinks.push_back(k);
  }
  const std::int32_t pj = parent[static_cast<std::size_t>(j)];
  if (pj != -1 && parent_cut[static_cast<std::size_t>(j)] >= u)
    sinks.push_back(pj);
  gusfield_sinks_histogram().record(sinks.size());
  return sinks;
}

/// Gusfield's n-1 max flows over vertices 1..n-1 in order, shared by both
/// Gomory–Hu builders, all on the one network `net` this call owns: the
/// steps are inherently ordered, and reset() restores exact capacities, so
/// one build answers every step as a fresh network would. `boundary(i)` is
/// w(delta({i})); `solve(net, i, sinks)` answers the min cut between i and
/// the certified sink set of i's parent (certified_sinks), which is the
/// i-parent[i] min cut. A complete cut is applied from the network's own
/// residual marks (gusfield_apply).
///
/// In the hypergraph those marks are exactly i's side: the component C of
/// i in H minus the cut nets equals the reached vertex set R. C is inside R
/// because a reached pin reaches its net's e_in, an uncut net with reached
/// e_in has reached e_out, and e_out reaches every pin. R is inside C
/// because the Lawler cut induced by C costs w(delta(C)) <= the cut value,
/// the max flow, so it is a min cut, and residual reachability lies inside
/// every min cut.
template <typename RunResult, typename BoundaryFn, typename SolveFn>
void run_gusfield(std::int32_t n, FlowNetwork net, RunResult& out,
                  BoundaryFn&& boundary, SolveFn&& solve) {
  RunState* run = current_run_state();
  auto& tree = out.tree;
  tree.root = 0;
  tree.parent.assign(static_cast<std::size_t>(n), 0);
  tree.parent[0] = -1;
  tree.parent_cut.assign(static_cast<std::size_t>(n), 0.0);
  bool interrupted = false;
  for (std::int32_t i = 1; i < n; ++i) {
    // Anytime stop, at the apply boundary only: vertices before i keep
    // their exact cuts, i and beyond stay provisional. An interrupted
    // (incomplete) flow is never applied — its witness need not separate.
    if (run != nullptr && !run->check().ok()) {
      interrupted = true;
      break;
    }
    const auto c = solve(net, i, certified_sinks(tree, i, boundary(i)));
    if (!c.complete) {
      interrupted = true;
      break;
    }
    gusfield_apply(tree, i, c.value, net);
    ++out.applied;
    if (run != nullptr) run->note_piece();
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
  // One span per builder run; the nested flow.min_edge_cut spans carry
  // the per-flow detail.
  ht::obs::TraceSpan trace("gomory_hu");
  trace.arg("n", n);
  GomoryHuRunResult out;
  run_gusfield(
      n, FlowNetwork::edge_cut_network(g), out,
      [&](GraphVertexId i) {
        double u = 0.0;
        for (const auto& entry : g.neighbors(i)) u += g.edge(entry.edge).weight;
        return u;
      },
      [&](FlowNetwork& net, GraphVertexId i,
          const std::vector<GraphVertexId>& sinks) {
        return solve_edge_cut(net, g, {i}, sinks);
      });
  trace.arg("applied", out.applied);
  return out;
}

HypergraphGomoryHuRunResult CutEngine::gomory_hu(const Hypergraph& h) const {
  HT_CHECK(h.finalized());
  const HyperVertexId n = h.num_vertices();
  HT_CHECK(n >= 2);
  // One span per builder run (see the graph builder).
  ht::obs::TraceSpan trace("gomory_hu.hypergraph");
  trace.arg("n", n);
  trace.arg("m", h.num_edges());
  HypergraphGomoryHuRunResult out;
  run_gusfield(
      n, FlowNetwork::hyperedge_cut_network(h), out,
      [&](HyperVertexId i) {
        // Every net has >= 2 distinct pins, so every net at i crosses {i}.
        double u = 0.0;
        for (auto e : h.incident_edges(i)) u += h.edge_weight(e);
        return u;
      },
      [&](FlowNetwork& net, HyperVertexId i,
          const std::vector<HyperVertexId>& sinks) {
        return solve_hyperedge_cut(net, h, {i}, sinks);
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
