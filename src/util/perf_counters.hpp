// Process-wide performance counters for the parallel decomposition engine.
//
// The engines (wavefront peeling, Gomory–Hu, the flow oracles)
// and the thread pool feed a small set of counters; benches reset them
// around a measured section and print report(). Counters are intentionally
// lossy about attribution (they are process-wide, not per-call) — they
// exist to make "what did this run actually do" visible, not to replace a
// profiler.
//
// Since the observability refactor this class is a facade: every counter
// is a named metric in ht::obs::MetricsRegistry ("engine.pieces",
// "flow.builds", "pool.max_queue_depth", ...), so metrics snapshots and
// bench JSON see the same numbers as these accessors. reset() resets the
// *whole* registry (benches want a clean slate for every metric, including
// ones registered outside this facade, e.g. "flow.augmenting_paths").
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace ht {

class PerfCounters {
 public:
  static PerfCounters& global();

  /// Work items (pieces/clusters/subproblems) processed by the engines.
  void add_pieces(std::uint64_t count) { pieces_.add(count); }
  /// Max-flow invocations (min_edge_cut / min_vertex_cut /
  /// min_hyperedge_cut, and each Gomory–Hu step).
  void add_max_flow_call() { max_flow_calls_.add(); }
  /// Tasks executed by the thread pool (workers and stealing waiters).
  void add_task() { tasks_.add(); }
  /// Records an observed pool queue depth; keeps the maximum.
  void note_queue_depth(std::size_t depth) {
    max_queue_depth_.update_max(static_cast<std::int64_t>(depth));
  }

  /// FlowNetwork constructed (one per point query, one per Gomory–Hu
  /// build).
  void add_flow_build() { flow_builds_.add(); }

  std::uint64_t pieces() const { return pieces_.value(); }
  std::uint64_t max_flow_calls() const { return max_flow_calls_.value(); }
  std::uint64_t tasks() const { return tasks_.value(); }
  std::uint64_t max_queue_depth() const {
    return static_cast<std::uint64_t>(max_queue_depth_.value());
  }
  std::uint64_t flow_builds() const { return flow_builds_.value(); }

  /// Zeroes every metric in the registry.
  void reset();

  /// Multi-line human-readable summary (benches print this after a run).
  std::string report() const;

 private:
  PerfCounters();

  obs::Counter& pieces_;
  obs::Counter& max_flow_calls_;
  obs::Counter& tasks_;
  obs::Gauge& max_queue_depth_;
  obs::Counter& flow_builds_;
};

}  // namespace ht
