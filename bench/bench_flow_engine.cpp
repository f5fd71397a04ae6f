// Experiment FE: the cache-native flow kernel behind ht::CutEngine.
//
// Sections gomory_hu / vertex_cut_tree / hypergraph_gomory_hu /
// hypergraph_gomory_hu_ring, each one fixed cut-tree workload. A
// Gomory–Hu build answers its n-1 flows on the one network it owns (one
// build); the vertex cut tree's point queries build one network each. The
// ring section is the large-diameter case, where Gomory–Hu steps run
// against certified sink sets of several vertices and local resets.
//
// Wall times are the MEDIAN of kReps runs (single-core CI runners are
// noisy); the deterministic counters (flows, builds, augmenting paths)
// come from one counted run and are identical every repetition. Each
// measurement also reports the p99 of the per-query flow.solve_ns
// histogram and embeds a full metrics-registry snapshot. Results land in
// BENCH_flow_engine.json, diffed against
// bench/baselines/BENCH_flow_engine_baseline.json by tools/bench_diff.py
// --flow in CI (hard gates on deterministic counts, soft/hard 2x/4x
// tiers on wall and p99). A final probe checks that disabled tracing
// costs < 2% of the measured workload (soft gate).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cuttree/vertex_cut_tree.hpp"
#include "flow/cut_engine.hpp"
#include "graph/generators.hpp"
#include "hypergraph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"

namespace {

constexpr int kReps = 5;

struct Measurement {
  double wall_ms = 0.0;  // median over kReps
  std::uint64_t max_flow_calls = 0;
  std::uint64_t flow_builds = 0;
  std::uint64_t augmenting_paths = 0;  // sum over the counted run
  double solve_p99_us = 0.0;           // p99 of flow.solve_ns
  std::string metrics_json;            // registry snapshot after the run
};

struct Section {
  std::string name;
  Measurement m;
};

/// Runs `work` kReps+1 times: kReps timed (median wall), one counted with
/// all metrics freshly reset.
template <typename Fn>
Measurement measure(Fn&& work) {
  std::vector<double> walls;
  walls.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    ht::Timer timer;
    work();
    walls.push_back(timer.millis());
  }
  std::sort(walls.begin(), walls.end());

  auto& counters = ht::PerfCounters::global();
  ht::obs::MetricsRegistry::global().reset_all();
  counters.reset();
  work();

  Measurement m;
  m.wall_ms = walls[walls.size() / 2];
  m.max_flow_calls = counters.max_flow_calls();
  m.flow_builds = counters.flow_builds();
  auto& registry = ht::obs::MetricsRegistry::global();
  m.augmenting_paths = static_cast<std::uint64_t>(
      registry.histogram("flow.augmenting_paths").snapshot().sum);
  m.solve_p99_us = registry.histogram("flow.solve_ns").snapshot().p99() / 1e3;
  m.metrics_json = registry.snapshot_json();
  return m;
}

void append_json(std::string& out, const Section& s, bool last) {
  const Measurement& m = s.m;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"wall_ms\": %.3f, \"max_flow_calls\": %llu, "
                "\"flow_builds\": %llu, \"augmenting_paths\": %llu, "
                "\"solve_p99_us\": %.3f,\n"
                "    \"metrics\": ",
                s.name.c_str(), m.wall_ms,
                static_cast<unsigned long long>(m.max_flow_calls),
                static_cast<unsigned long long>(m.flow_builds),
                static_cast<unsigned long long>(m.augmenting_paths),
                m.solve_p99_us);
  out += buf;
  out += m.metrics_json;
  out += last ? "}\n" : "},\n";
}

/// The <2% contract for disabled tracing. Directly timing traced vs
/// untraced wall clock drowns in run-to-run noise at this workload size,
/// so the probe measures the two factors separately: (a) the per-span
/// disabled cost from a tight construct/destruct loop, (b) the span count
/// an *enabled* run of the workload records. overhead_pct is then
/// spans * ns_per_span relative to the untraced wall time.
struct OverheadReport {
  double ns_per_span = 0.0;
  std::uint64_t spans = 0;
  double workload_ms = 0.0;
  double overhead_pct = 0.0;
};

template <typename Fn>
OverheadReport measure_disabled_overhead(Fn&& workload, double workload_ms) {
  OverheadReport r;
  r.workload_ms = workload_ms;
  const bool was_enabled = ht::obs::tracing_enabled();
  ht::obs::set_tracing_enabled(false);
  constexpr int kProbeSpans = 1 << 21;
  ht::Timer timer;
  for (int i = 0; i < kProbeSpans; ++i) {
    ht::obs::TraceSpan span("overhead.probe");
    (void)span;
  }
  r.ns_per_span = timer.millis() * 1e6 / kProbeSpans;

  auto& tracer = ht::obs::Tracer::global();
  const std::size_t before = tracer.event_count();
  ht::obs::set_tracing_enabled(true);
  workload();
  ht::obs::set_tracing_enabled(false);
  r.spans = tracer.event_count() - before;
  ht::obs::set_tracing_enabled(was_enabled);

  if (workload_ms > 0.0) {
    r.overhead_pct = static_cast<double>(r.spans) * r.ns_per_span /
                     (workload_ms * 1e6) * 100.0;
  }
  return r;
}

}  // namespace

int main() {
  ht::bench::print_header(
      "FE: cache-native flow kernel (CutEngine)",
      "CSR arcs + reset-and-reuse: a Gomory–Hu build answers its n-1 flows "
      "on one network; outputs byte-identical at every thread count");

  std::vector<Section> sections;

  ht::Rng gh_rng(1313);
  const auto gh_graph = ht::graph::gnp_connected(160, 6.0 / 160, gh_rng);
  const auto gh_workload = [&gh_graph] {
    (void)ht::CutEngine().gomory_hu(gh_graph);
  };
  sections.push_back({"gomory_hu", measure(gh_workload)});
  {
    ht::Rng rng(2024);
    const auto g = ht::graph::gnp_connected(140, 5.0 / 140, rng);
    ht::cuttree::VertexCutTreeOptions opt;
    opt.threshold_override = 0.75;  // force splits all the way down
    sections.push_back({"vertex_cut_tree", measure([&] {
                          (void)ht::cuttree::build_vertex_cut_tree(g, opt);
                        })});
  }
  ht::Rng hh_rng(99);
  const auto hh = ht::hypergraph::random_uniform(80, 160, 3, hh_rng);
  sections.push_back({"hypergraph_gomory_hu", measure([&hh] {
                        (void)ht::CutEngine().gomory_hu(hh);
                      })});
  const auto ring = ht::hypergraph::ring_of_clusters(100, 10);
  sections.push_back({"hypergraph_gomory_hu_ring", measure([&ring] {
                        (void)ht::CutEngine().gomory_hu(ring);
                      })});

  ht::Table table(
      {"section", "wall_ms", "flows", "builds", "aug_paths", "p99_us"});
  for (const auto& [name, m] : sections) {
    table.add(name, m.wall_ms, m.max_flow_calls, m.flow_builds,
              m.augmenting_paths, m.solve_p99_us);
  }
  ht::bench::print_table(table);

  const OverheadReport overhead =
      measure_disabled_overhead(gh_workload, sections[0].m.wall_ms);
  std::printf(
      "trace overhead (disabled): %.2f ns/span x %llu spans over %.1f ms "
      "= %.4f%% -> %s\n",
      overhead.ns_per_span,
      static_cast<unsigned long long>(overhead.spans), overhead.workload_ms,
      overhead.overhead_pct,
      overhead.overhead_pct < 2.0 ? "PASS (<2%, soft gate)"
                                  : "WARN (>=2%, soft gate)");

  std::string json = "{\n";
  for (const auto& s : sections) append_json(json, s, false);
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"trace_overhead\": {\"ns_per_span\": %.3f, "
                  "\"spans\": %llu, \"workload_ms\": %.3f, "
                  "\"overhead_pct\": %.5f}\n",
                  overhead.ns_per_span,
                  static_cast<unsigned long long>(overhead.spans),
                  overhead.workload_ms, overhead.overhead_pct);
    json += buf;
  }
  json += "}\n";
  if (std::FILE* f = std::fopen("BENCH_flow_engine.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::cout << "wrote BENCH_flow_engine.json\n";
  }
  return 0;
}
